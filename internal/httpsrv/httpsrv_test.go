package httpsrv

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestRequireBearer(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNoContent) })
	status := func(h http.Handler, auth string) int {
		req := httptest.NewRequest("GET", "/", nil)
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code
	}
	if got := status(RequireBearer("", ok), ""); got != http.StatusNoContent {
		t.Fatalf("no token configured: status %d, want 204", got)
	}
	h := RequireBearer("S3CRET", ok)
	for _, tc := range []struct {
		auth string
		want int
	}{
		{"Bearer S3CRET", http.StatusNoContent},
		{"", http.StatusUnauthorized},
		{"Bearer s3cret", http.StatusUnauthorized},
		{"Bearer S3CRET2", http.StatusUnauthorized},
		{"Basic S3CRET", http.StatusUnauthorized},
		{"S3CRET", http.StatusUnauthorized},
	} {
		if got := status(h, tc.auth); got != tc.want {
			t.Errorf("Authorization %q: status %d, want %d", tc.auth, got, tc.want)
		}
	}
}
