package cookiewalk

import (
	"context"
	"fmt"
	"maps"
	"strings"
	"testing"
	"time"
)

// TestUndeclaredDependencyPanics registers a node whose run func
// resolves an artefact missing from its deps. Dependencies and
// JournalDirs are built from deps, so the resolve must panic, naming
// both ids, instead of running the artefact behind the DAG's back.
func TestUndeclaredDependencyPanics(t *testing.T) {
	const (
		consumer   = "test-consumer"
		undeclared = "test-undeclared"
	)
	saved := registry
	t.Cleanup(func() { registry = saved })
	registry = maps.Clone(saved)
	registry[undeclared] = &node{id: undeclared, run: func(context.Context, *Study) (any, error) {
		return 1, nil
	}}
	registry[consumer] = &node{id: consumer, deps: []string{artLandscape}, run: func(ctx context.Context, s *Study) (any, error) {
		if _, err := s.resolve(ctx, artLandscape); err != nil {
			return nil, err
		}
		return s.resolve(ctx, undeclared)
	}}
	// The consumer declares the landscape, which a latched stand-in
	// satisfies without a crawl: resolving it from the run func is fine.
	landscape := &nodeState{done: make(chan struct{})}
	close(landscape.done)
	s := &Study{nodes: map[string]*nodeState{artLandscape: landscape}}

	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		_, _ = s.resolve(context.Background(), consumer)
	}()
	var p any
	select {
	case p = <-recovered:
	case <-time.After(10 * time.Second):
		t.Fatal("resolving an undeclared artefact neither panicked nor returned")
	}
	if p == nil {
		t.Fatal("resolving an undeclared artefact did not panic")
	}
	msg := fmt.Sprint(p)
	if !strings.Contains(msg, consumer) || !strings.Contains(msg, undeclared) {
		t.Fatalf("panic %q does not name both %q and %q", msg, consumer, undeclared)
	}
	if s.peek(undeclared) != nil {
		t.Fatal("the undeclared artefact ran")
	}
}
