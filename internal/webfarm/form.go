package webfarm

import (
	"bytes"
	"io"
	"net/http"
)

// formPeek bounds the form body formValue reads itself: the consent
// choice and the SMP login token fit many times over.
const formPeek = 512

// formValue returns the first value of key in r's urlencoded body,
// with ok false exactly when r.ParseForm fails: the verdict that
// r.ParseForm and r.PostForm.Get give. A farm handler reads one field
// of a short form, and ParseForm spends two maps and an io.ReadAll on
// it. formValue reads the body into the caller's buf, checks the
// escapes of every pair as url.ParseQuery does and unescapes the value
// in place; the value is a view of buf. A request it does not cover
// (another method or Content-Type, a URL query, a form already parsed,
// a body longer than formPeek) goes to ParseForm, with a copy of the
// bytes read so far put back in front of the body.
func formValue(r *http.Request, key string, buf *[formPeek]byte) (value []byte, ok bool) {
	if r.Method != http.MethodPost || r.Body == nil || r.Form != nil || r.PostForm != nil ||
		r.URL == nil || r.URL.RawQuery != "" ||
		r.Header.Get("Content-Type") != "application/x-www-form-urlencoded" {
		return parseFormValue(r, key)
	}
	n, err := readForm(r.Body, buf)
	switch {
	case err == io.EOF:
		return queryValue(buf[:n], key)
	case err != nil:
		return nil, false
	}
	r.Body = io.NopCloser(io.MultiReader(bytes.NewReader(bytes.Clone(buf[:n])), r.Body))
	return parseFormValue(r, key)
}

// readForm reads body into buf until EOF, which it returns with the
// byte count, or until buf is full, which it reports with a nil error.
// A body that is an io.ByteReader (the emulated browser's form body,
// strings.Reader, bytes.Reader) is read byte by byte: buf handed to a
// Read through an interface would have to live on the heap. Any other
// body is read through a buffer of its own and copied.
func readForm(body io.Reader, buf *[formPeek]byte) (int, error) {
	if br, ok := body.(io.ByteReader); ok {
		for n := range buf {
			c, err := br.ReadByte()
			if err != nil {
				return n, err
			}
			buf[n] = c
		}
		return len(buf), nil
	}
	tmp := make([]byte, formPeek)
	n := 0
	for {
		m, err := body.Read(tmp[n:])
		n += m
		if err != nil || n == len(tmp) {
			return copy(buf[:], tmp[:n]), err
		}
	}
}

// parseFormValue is formValue through ParseForm.
func parseFormValue(r *http.Request, key string) ([]byte, bool) {
	if err := r.ParseForm(); err != nil {
		return nil, false
	}
	return []byte(r.PostForm.Get(key)), true
}

// queryValue returns the first value of key in the urlencoded form q,
// unescaped in place, and false when url.ParseQuery reports an error
// for q: a pair holding ';' or a malformed %-escape anywhere.
func queryValue(q []byte, key string) (value []byte, ok bool) {
	found := false
	for len(q) > 0 {
		var pair []byte
		pair, q, _ = bytes.Cut(q, []byte("&"))
		if bytes.IndexByte(pair, ';') >= 0 {
			return nil, false
		}
		if len(pair) == 0 {
			continue
		}
		k, v, _ := bytes.Cut(pair, []byte("="))
		if k, ok = unescapeQuery(k); !ok {
			return nil, false
		}
		if v, ok = unescapeQuery(v); !ok {
			return nil, false
		}
		if !found && string(k) == key {
			value, found = v, true
		}
	}
	return value, true
}

// unescapeQuery decodes a query component in place, as
// url.QueryUnescape does: "+" is a space and "%XX" a byte.
func unescapeQuery(s []byte) ([]byte, bool) {
	j := 0
	for i := 0; i < len(s); j++ {
		switch s[i] {
		case '%':
			if i+2 >= len(s) || !isHex(s[i+1]) || !isHex(s[i+2]) {
				return nil, false
			}
			s[j] = unhex(s[i+1])<<4 | unhex(s[i+2])
			i += 3
		case '+':
			s[j] = ' '
			i++
		default:
			s[j] = s[i]
			i++
		}
	}
	return s[:j], true
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func unhex(c byte) byte {
	switch {
	case c <= '9':
		return c - '0'
	case c >= 'a':
		return c - 'a' + 10
	}
	return c - 'A' + 10
}
