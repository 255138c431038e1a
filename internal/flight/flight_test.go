package flight

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoCoalesces races many callers at one key and asserts fn ran once and
// everyone shared the result.
func TestDoCoalesces(t *testing.T) {
	g := NewGroup[int]()
	var execs atomic.Int32
	release := make(chan struct{})

	const callers = 32
	var wg sync.WaitGroup
	vals := make([]int, callers)
	shareds := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, shared := g.Do(context.Background(), "k", func(context.Context) (int, error) {
				execs.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			vals[i], shareds[i] = v, shared
		}(i)
	}
	// Wait until every caller has joined the call, then release it. (Waiting
	// only for the call to register let a late caller start a second
	// execution after the first had finished.)
	joined := func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		c := g.calls["k"]
		return c != nil && c.waiters == callers
	}
	for !joined() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Fatalf("fn executed %d times, want 1", n)
	}
	nonShared := 0
	for i := 0; i < callers; i++ {
		if vals[i] != 42 {
			t.Fatalf("caller %d got %d, want 42", i, vals[i])
		}
		if !shareds[i] {
			nonShared++
		}
	}
	if nonShared != 1 {
		t.Fatalf("%d callers report starting the execution, want exactly 1", nonShared)
	}
	if g.Inflight() != 0 {
		t.Fatalf("call not forgotten after completion")
	}
}

// TestDoErrorShared delivers fn's error to every waiter and forgets the key
// so the next call re-executes.
func TestDoErrorShared(t *testing.T) {
	g := NewGroup[int]()
	boom := errors.New("boom")
	n := 0
	fn := func(context.Context) (int, error) { n++; return 0, boom }
	if _, err, _ := g.Do(context.Background(), "k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err, _ := g.Do(context.Background(), "k", fn); !errors.Is(err, boom) {
		t.Fatalf("second err = %v, want boom", err)
	}
	if n != 2 {
		t.Fatalf("failed call was cached: fn ran %d times, want 2", n)
	}
}

// TestDoWaiterDetach cancels one waiter's context and asserts it returns
// promptly while the other waiter still gets the shared result.
func TestDoWaiterDetach(t *testing.T) {
	g := NewGroup[string]()
	release := make(chan struct{})
	fn := func(context.Context) (string, error) { <-release; return "done", nil }

	var patientV string
	var patientErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		patientV, patientErr, _ = g.Do(context.Background(), "k", fn)
	}()
	for g.Inflight() == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	start := time.Now()
	_, err, shared := g.Do(ctx, "k", fn)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	if !shared {
		t.Fatalf("second caller should have joined the in-flight call")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled waiter took %v to detach", d)
	}

	close(release)
	wg.Wait()
	if patientErr != nil || patientV != "done" {
		t.Fatalf("patient waiter got (%q, %v), want (done, nil)", patientV, patientErr)
	}
}

// TestDoCancelsWhenAbandoned cancels every waiter and asserts the call
// context fn runs under is cancelled.
func TestDoCancelsWhenAbandoned(t *testing.T) {
	g := NewGroup[int]()
	cancelled := make(chan struct{})
	started := make(chan struct{})
	fn := func(ctx context.Context) (int, error) {
		close(started)
		<-ctx.Done()
		close(cancelled)
		return 0, ctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() { <-started; cancel() }()
	if _, err, _ := g.Do(ctx, "k", fn); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatalf("call context never cancelled after the last waiter left")
	}
}

// TestDoPanicBecomesError recovers a panicking fn into an error for the
// waiters instead of crashing the process.
func TestDoPanicBecomesError(t *testing.T) {
	g := NewGroup[int]()
	_, err, _ := g.Do(context.Background(), "k", func(context.Context) (int, error) {
		panic("kaboom")
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic error mentioning kaboom", err)
	}
	if g.Inflight() != 0 {
		t.Fatalf("panicked call left in flight")
	}
}

// TestDoDistinctKeys runs independent keys concurrently without coalescing
// across them.
func TestDoDistinctKeys(t *testing.T) {
	g := NewGroup[int]()
	var wg sync.WaitGroup
	var execs atomic.Int32
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := string(rune('a' + i%4))
			v, err, _ := g.Do(context.Background(), key, func(context.Context) (int, error) {
				execs.Add(1)
				time.Sleep(2 * time.Millisecond)
				return i % 4, nil
			})
			if err != nil || v != i%4 {
				// Coalesced callers of the same key share the first caller's
				// value, which equals i%4 for every caller of that key.
				t.Errorf("key %s: got (%d, %v)", key, v, err)
			}
		}(i)
	}
	wg.Wait()
	if n := execs.Load(); n < 1 || n > 8 {
		t.Fatalf("execs = %d, want within [1, 8]", n)
	}
}
