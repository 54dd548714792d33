// Package httpsrv holds what every HTTP server of this module shares:
// one set of connection timeouts and one bearer-token check. It
// imports only the standard library.
package httpsrv

import (
	"crypto/sha256"
	"crypto/subtle"
	"net/http"
	"strings"
	"time"
)

// Connection bounds: a client that stalls before finishing its request
// headers, or an idle keep-alive connection, is dropped instead of
// holding a goroutine and a descriptor for ever. readTimeout bounds the
// whole request read, body included, so it fits servers whose requests
// carry no large body.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// New returns a server for h on addr with all three timeouts set. A
// server that accepts large uploads clears ReadTimeout.
func New(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// RequireBearer wraps h so that every request must carry
// "Authorization: Bearer <token>"; any other request gets 401. An empty
// token returns h unchanged. The comparison is constant-time over
// digests, so it takes the same time whatever the length of the token
// a client sends.
func RequireBearer(token string, h http.Handler) http.Handler {
	if token == "" {
		return h
	}
	want := sha256.Sum256([]byte(token))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		got := sha256.Sum256([]byte(tok))
		if !ok || subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
			http.Error(w, "missing or invalid bearer token", http.StatusUnauthorized)
			return
		}
		h.ServeHTTP(w, r)
	})
}
