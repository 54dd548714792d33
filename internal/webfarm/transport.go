package webfarm

import (
	"fmt"
	"net/http"
	"net/http/httptest"
)

// Transport returns an http.RoundTripper that dispatches requests to
// the farm in-process — no sockets, no DNS — so a 45k-site × 8-VP crawl
// finishes in seconds. Unknown hosts behave like NXDOMAIN and
// unreachable sites like connection timeouts: the RoundTripper returns
// an error, exactly what a real crawler's HTTP client would surface.
//
// The returned transport also implements the emulated browser's
// zero-copy fast path (RoundTripBody): the routed reply is handed over
// as it is — its body usually the farm's cached render, shared
// unsliced — with no response writer, http.Response reconstruction or
// io.ReadAll in between. RoundTrip remains as the compatibility path
// for plain net/http clients, serving the same reply through ServeHTTP
// and an httptest recorder; cmd/webfarm serves the identical handler
// on a real listener for interactive exploration.
func (f *Farm) Transport() http.RoundTripper {
	return &inProcessTransport{farm: f}
}

type inProcessTransport struct {
	farm *Farm
}

// HostError is the transport-level failure for unknown or unreachable
// hosts.
type HostError struct {
	Host string
	// Reason is "no such host" or "unreachable".
	Reason string
}

// Error implements the error interface.
func (e *HostError) Error() string {
	return fmt.Sprintf("webfarm: %s: %s", e.Host, e.Reason)
}

// resolve applies the NXDOMAIN/timeout emulation shared by both
// round-trip paths.
func (t *inProcessTransport) resolve(req *http.Request) error {
	host := req.Host
	if host == "" {
		host = req.URL.Host
	}
	known, reachable := t.farm.KnownHost(host)
	if !known {
		return &HostError{Host: host, Reason: "no such host"}
	}
	if !reachable {
		return &HostError{Host: host, Reason: "unreachable"}
	}
	return nil
}

func (t *inProcessTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := t.resolve(req); err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	t.farm.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// RoundTripBody is the allocation-free dispatch path the emulated
// browser probes for: it returns the routed reply's fields directly.
// fp is 0 when the body is not a cached render; the caller then hashes
// the bytes lazily and gets bodyHash(body), exactly what a plain-HTTP
// client computes from the bytes it reads, so analysis memoization
// keys agree across deployment modes.
func (t *inProcessTransport) RoundTripBody(req *http.Request) (status int, header http.Header, body string, fp uint64, err error) {
	if err := t.resolve(req); err != nil {
		return 0, nil, "", 0, err
	}
	rep := t.farm.route(req)
	return rep.status, rep.header, rep.body, rep.fp, nil
}
