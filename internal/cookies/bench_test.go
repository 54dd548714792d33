package cookies

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

func BenchmarkJarSetAndQuery(b *testing.B) {
	now := time.Date(2023, 5, 1, 0, 0, 0, 0, time.UTC)
	headers := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		headers = append(headers, fmt.Sprintf("c%02d=v; Path=/; Max-Age=3600", i))
	}
	var dst []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := NewJar()
		j.Now = func() time.Time { return now }
		j.SetFromHeaders("www.site.de", headers)
		dst = j.AppendCookieHeader(dst[:0], "www.site.de", "/", true)
		if bytes.Count(dst, []byte("; ")) != 39 {
			b.Fatal("lost cookies")
		}
	}
}

func BenchmarkParseSetCookie(b *testing.B) {
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := parseSetCookie("sid=abc; Domain=.site.de; Path=/; Max-Age=3600; Secure; HttpOnly", "www.site.de", now); !ok {
			b.Fatal("parse failed")
		}
	}
}
