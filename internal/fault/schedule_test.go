package fault_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cookiewalk/internal/browser"
	"cookiewalk/internal/fault"
)

// okBase answers every request with a 200 on both browser seams and
// records the request bodies it receives.
type okBase struct {
	body   string
	mu     sync.Mutex
	bodies []int // received request body lengths, in order
}

func (b *okBase) RoundTrip(req *http.Request) (*http.Response, error) {
	n := 0
	if req.Body != nil {
		data, _ := io.ReadAll(req.Body)
		n = len(data)
	}
	b.mu.Lock()
	b.bodies = append(b.bodies, n)
	b.mu.Unlock()
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
		Body: io.NopCloser(strings.NewReader(b.body)), Request: req}, nil
}

func (b *okBase) RoundTripBody(req *http.Request) (int, http.Header, string, uint64, error) {
	return http.StatusOK, http.Header{}, b.body, 1, nil
}

// plainOnly hides okBase's fast path, so Wrap picks the plain seam.
type plainOnly struct{ rt http.RoundTripper }

func (p plainOnly) RoundTrip(req *http.Request) (*http.Response, error) { return p.rt.RoundTrip(req) }

// visitRequests is the fixed (method, URL, attempt) list the visit
// schedule is pinned over; attempt 2 is past the default cap.
func visitRequests() []*http.Request {
	var reqs []*http.Request
	for i := 0; i < 16; i++ {
		method := http.MethodGet
		if i%4 == 3 {
			method = http.MethodPost
		}
		for attempt := 0; attempt < 3; attempt++ {
			ctx := browser.WithAttempt(context.Background(), attempt)
			req, _ := http.NewRequestWithContext(ctx, method, fmt.Sprintf("http://site-%d.example/page?q=%d", i%8, i), nil)
			reqs = append(reqs, req)
		}
	}
	return reqs
}

var visitMix = fault.VisitProfile{Timeout: 100, Reset: 100, Err503: 100, Truncate: 100, Stall: 100, StallFor: time.Microsecond}

// visitDecision sends req down one seam of a Wrap'd injector and names
// the fault it injected by the counter it moved: '.' clean, 'T'
// timeout, 'R' reset, '5' 503, 'X' truncate, 'S' stall.
func visitDecision(rt http.RoundTripper, inj *fault.VisitTransport, req *http.Request, fast bool) byte {
	before := inj.Injected()
	if fast {
		rt.(interface {
			RoundTripBody(*http.Request) (int, http.Header, string, uint64, error)
		}).RoundTripBody(req)
	} else if resp, err := rt.RoundTrip(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	after := inj.Injected()
	switch {
	case after.Timeouts > before.Timeouts:
		return 'T'
	case after.Resets > before.Resets:
		return 'R'
	case after.Err503s > before.Err503s:
		return '5'
	case after.Truncates > before.Truncates:
		return 'X'
	case after.Stalls > before.Stalls:
		return 'S'
	}
	return '.'
}

// fleetPath is both a journal PUT and a heartbeat, so every fleet
// fault kind applies to it and the decision sequence is fully visible.
const fleetPath = "http://coord.test/v1/journal/x/v1/heartbeat"

// fleetDecisions sends n journal PUTs of a 1000-byte body through a
// fleet Transport and names each injected fault: '.' clean, 'P'
// torn-put (its cut offset appended to cuts), 'H' stall-hb, 'D' drop,
// 'S' short-read, '5' 503, 'U' dup.
func fleetDecisions(t *testing.T, seed uint64, profile fault.FleetProfile, n int) (string, []int) {
	t.Helper()
	base := &okBase{body: "fleet reply"}
	tr := &fault.Transport{Base: base, Seed: seed, Profile: profile}
	var sb strings.Builder
	var cuts []int
	for i := 0; i < n; i++ {
		before := len(base.bodies)
		req, _ := http.NewRequest(http.MethodPut, fleetPath, strings.NewReader(strings.Repeat("j", 1000)))
		resp, err := tr.RoundTrip(req)
		var rerr error
		if err == nil {
			_, rerr = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		sent := base.bodies[before:]
		switch {
		case err != nil && len(sent) == 0:
			sb.WriteByte('H')
		case err != nil:
			sb.WriteByte('D')
		case resp.StatusCode == http.StatusServiceUnavailable:
			sb.WriteByte('5')
		case len(sent) == 2:
			sb.WriteByte('U')
		case sent[0] < 1000:
			sb.WriteByte('P')
			cuts = append(cuts, sent[0])
		case rerr != nil:
			sb.WriteByte('S')
		default:
			sb.WriteByte('.')
		}
	}
	return sb.String(), cuts
}

// burstPattern sends n requests through a 503-burst Handler: '5' for
// an injected 503, '.' for a request the inner handler served.
func burstPattern(seed uint64, burst, n int) string {
	h := &fault.Handler{Inner: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}), Seed: seed, Burst: burst}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/lease", nil))
		if rec.Code == http.StatusServiceUnavailable {
			sb.WriteByte('5')
		} else {
			sb.WriteByte('.')
		}
	}
	return sb.String()
}

// TestSchedulePin pins the fault schedule of seeds 1–3 on every seam.
// The literals were recorded from the two injectors this package
// replaced; a change here changes which requests a chaos run faults.
func TestSchedulePin(t *testing.T) {
	want := map[uint64]struct {
		visit, fleet string
		cuts         []int
		burst        string
	}{
		1: {
			visit: "S...5.S...5.TS..T.T..X..XT....TX.T...X..R..S..R.",
			fleet: "P..HD.55H.D.UPDHPH.P5DPU.H5.HUH.5.DPDPPD5..U.S5SH5S5..H...SSDH.U",
			cuts:  []int{789, 349, 931, 360, 935, 837, 177, 572},
			burst: ".55.........55...5555.555..........5555.........................",
		},
		2: {
			visit: "5...R..S..T.X...R.T..X..5..XT....R.....RT.5.....",
			fleet: ".P.5.DHD.H5DPU..HPHPD5P5H.UHUH.D.5.PPDP..5D5S.US5HSH..5S....HDSS",
			cuts:  []int{789, 349, 931, 935, 360, 572, 177, 837},
			burst: "..55.......55.....5555.............5555.........................",
		},
		3: {
			visit: ".R..X..X.5..5S.....S.S..5...X....TS........S....",
			fleet: "..P.5HD.D5HPD.UH.HPDPP5H5U.UH.H.D.5PPPD..D5S5U.5SSH.H5..S..H.SD.",
			cuts:  []int{789, 349, 931, 935, 360, 177, 572, 837},
			burst: "...55.....55....55555...........5555............................",
		},
	}
	for _, seed := range []uint64{1, 2, 3} {
		var visit strings.Builder
		rt, inj := fault.Wrap(plainOnly{&okBase{body: "visit reply"}}, seed, visitMix)
		for _, req := range visitRequests() {
			visit.WriteByte(visitDecision(rt, inj, req, false))
		}
		fleet, cuts := fleetDecisions(t, seed, fault.FleetProfile{TornPut: 100, StallHB: 100, Drop: 100, ShortRead: 100, Err503: 100, Dup: 100}, 64)
		burst := burstPattern(seed, 100, 64)

		w := want[seed]
		if visit.String() != w.visit || fleet != w.fleet || fmt.Sprint(cuts) != fmt.Sprint(w.cuts) || burst != w.burst {
			t.Errorf("seed %d schedule moved:\n got: visit %q\n      fleet %q cuts %#v\n      burst %q\nwant: visit %q\n      fleet %q cuts %#v\n      burst %q",
				seed, visit.String(), fleet, cuts, burst, w.visit, w.fleet, w.cuts, w.burst)
		}
	}
}
