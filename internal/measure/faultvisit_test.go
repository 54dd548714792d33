package measure

import (
	"context"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"cookiewalk/internal/fault"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/webfarm"
)

// The memo-poisoning tests get their own universe (distinct seed) so
// their fingerprints cannot collide with entries other tests already
// planted in the process-global analysis memo — the first visit of each
// domain here is genuinely the first time its content is analyzed.
func faultFixture(t *testing.T) (*synthweb.Registry, *webfarm.Farm, []string) {
	t.Helper()
	reg := synthweb.Generate(synthweb.Config{Seed: 987654, FillerScale: 0.01})
	farm := webfarm.New(reg)
	targets := reg.TargetList()
	if len(targets) < 4 {
		t.Fatalf("fixture too small: %d targets", len(targets))
	}
	return reg, farm, targets
}

// plainOnly hides the farm's RoundTripBody fast path so the injector
// (and the browser) fall back to the plain http.RoundTripper seam,
// where truncation delivers real partial bytes before the tear.
type plainOnly struct{ rt http.RoundTripper }

func (p plainOnly) RoundTrip(req *http.Request) (*http.Response, error) { return p.rt.RoundTrip(req) }

// TestTruncatedThenRetrySuccessMatchesClean is the memo-poisoning
// invariant on the fast-path seam: a visit whose first attempt is torn
// mid-transfer and whose retry succeeds must produce the same
// Fingerprint and Observation as a visit over clean transport — the
// truncated attempt leaves no trace in the analysis memo.
func TestTruncatedThenRetrySuccessMatchesClean(t *testing.T) {
	reg, farm, targets := faultFixture(t)
	domain := targets[0]

	rt, ft := fault.Wrap(farm.Transport(), 7, fault.VisitProfile{
		Truncate: 1000, MaxPerRequest: 1,
	})
	flaky := New(reg, rt)
	flaky.VisitRetries = 2
	flaky.RetryBackoff = time.Millisecond

	got := flaky.Visit(context.Background(), germanyVP(), domain, VisitOpts{})
	if got.Err != "" {
		t.Fatalf("flaky visit failed despite retries: %s", got.Err)
	}
	if ft.Injected().Truncates == 0 {
		t.Fatal("injector never fired — the test is vacuous")
	}

	clean := New(reg, farm.Transport())
	want := clean.Visit(context.Background(), germanyVP(), domain, VisitOpts{})
	if want.Err != "" {
		t.Fatalf("clean visit failed: %s", want.Err)
	}
	if got.Fingerprint == 0 || got.Fingerprint != want.Fingerprint {
		t.Fatalf("fingerprints diverge: flaky %#x, clean %#x", got.Fingerprint, want.Fingerprint)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("observations diverge:\nflaky: %+v\nclean: %+v", got, want)
	}
}

// TestTornBodyRetryMatchesClean is the same invariant on the plain
// RoundTripper seam, where a torn body hands the reader real partial
// bytes before failing — the nastier poisoning vector, since partial
// content exists that must never reach analysis.
func TestTornBodyRetryMatchesClean(t *testing.T) {
	reg, farm, targets := faultFixture(t)
	domain := targets[1]

	rt, ft := fault.Wrap(plainOnly{farm.Transport()}, 11, fault.VisitProfile{
		Truncate: 1000, MaxPerRequest: 1,
	})
	flaky := New(reg, rt)
	flaky.VisitRetries = 2
	flaky.RetryBackoff = time.Millisecond

	got := flaky.Visit(context.Background(), germanyVP(), domain, VisitOpts{})
	if got.Err != "" {
		t.Fatalf("flaky visit failed despite retries: %s", got.Err)
	}
	if ft.Injected().Truncates == 0 {
		t.Fatal("injector never fired — the test is vacuous")
	}

	clean := New(reg, plainOnly{farm.Transport()})
	want := clean.Visit(context.Background(), germanyVP(), domain, VisitOpts{})
	if want.Err != "" {
		t.Fatalf("clean visit failed: %s", want.Err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("observations diverge:\nflaky: %+v\nclean: %+v", got, want)
	}
}

// TestFailedVisitNeverSeedsMemo drives visits that fail outright (no
// retries, every attempt torn) and then checks a clean visit of the
// same page computes the real analysis: the failures neither published
// a memo entry nor wedged its singleflight slot.
func TestFailedVisitNeverSeedsMemo(t *testing.T) {
	reg, farm, targets := faultFixture(t)
	domain := targets[2]

	rt, _ := fault.Wrap(farm.Transport(), 13, fault.VisitProfile{
		Truncate: 1000, MaxPerRequest: -1,
	})
	broken := New(reg, rt)
	for i := 0; i < 3; i++ {
		if o := broken.Visit(context.Background(), germanyVP(), domain, VisitOpts{}); o.Err == "" {
			t.Fatal("always-torn transport produced a successful visit")
		} else if o.Fingerprint != 0 {
			t.Fatalf("failed visit carries fingerprint %#x", o.Fingerprint)
		}
	}

	clean := New(reg, farm.Transport())
	want := clean.Visit(context.Background(), germanyVP(), domain, VisitOpts{})
	if want.Err != "" {
		t.Fatalf("clean visit after failures: %s", want.Err)
	}
	if want.Fingerprint == 0 || want.Kind.String() == "" {
		t.Fatalf("clean visit degraded: %+v", want)
	}
}

// TestMemoClaimRaceUnderFaults races failing and clean visitors of the
// same page (run with -race): failed singleflight claims must unblock
// concurrent waiters into re-claiming, and whoever succeeds publishes
// the one true analysis. Every successful observation must match the
// clean reference exactly.
func TestMemoClaimRaceUnderFaults(t *testing.T) {
	reg, farm, targets := faultFixture(t)
	domain := targets[3]

	rt, _ := fault.Wrap(farm.Transport(), 17, fault.VisitProfile{
		Truncate: 1000, MaxPerRequest: -1,
	})
	broken := New(reg, rt)
	clean := New(reg, farm.Transport())

	const rounds = 32
	var wg sync.WaitGroup
	obs := make([]Observation, rounds)
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := clean
			if i%2 == 0 {
				c = broken
			}
			obs[i] = c.Visit(context.Background(), germanyVP(), domain, VisitOpts{})
		}(i)
	}
	wg.Wait()

	want := clean.Visit(context.Background(), germanyVP(), domain, VisitOpts{})
	if want.Err != "" {
		t.Fatalf("clean reference visit: %s", want.Err)
	}
	for i, o := range obs {
		if i%2 == 0 {
			if o.Err == "" {
				t.Fatalf("visit %d over always-torn transport succeeded", i)
			}
			continue
		}
		if !reflect.DeepEqual(o, want) {
			t.Fatalf("clean visit %d diverges under racing faults:\ngot:  %+v\nwant: %+v", i, o, want)
		}
	}
}
