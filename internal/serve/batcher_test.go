package serve

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"
)

// gateEngine is a fake engine whose every DecideBatch call announces its
// size on entered and then blocks until release is closed. Each state's
// Now carries an id; the engine records the ids of every call and answers
// Pick = id, so a caller can check it got its own decisions back.
type gateEngine struct {
	entered chan int
	release chan struct{}

	mu    sync.Mutex
	calls [][]int
}

func newGateEngine() *gateEngine {
	return &gateEngine{entered: make(chan int, 64), release: make(chan struct{})}
}

func (e *gateEngine) Name() string { return "gate" }
func (e *gateEngine) MaxJobs() int { return 0 }

func (e *gateEngine) DecideBatch(states []*QueueState, out []Decision) {
	e.entered <- len(states)
	<-e.release
	ids := make([]int, len(states))
	for i, st := range states {
		ids[i] = int(st.Now)
		out[i].Pick = ids[i]
	}
	e.mu.Lock()
	e.calls = append(e.calls, ids)
	e.mu.Unlock()
}

func (e *gateEngine) recorded() [][]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([][]int(nil), e.calls...)
}

type decideResult struct {
	ids  []int
	decs []Decision
	err  error
}

// submit runs Batcher.Decide for len(ids) states with the given ids on its
// own goroutine; the result arrives on the returned channel.
func submit(b *Batcher, ids ...int) <-chan decideResult {
	states := make([]*QueueState, len(ids))
	for i, id := range ids {
		states[i] = &QueueState{Now: float64(id)}
	}
	res := make(chan decideResult, 1)
	go func() {
		decs, _, err := b.Decide(context.Background(), states)
		res <- decideResult{ids: ids, decs: decs, err: err}
	}()
	return res
}

// submitQueued submits one group and returns once it sits in the queue at
// position depth, so successive calls enqueue in a known order.
func submitQueued(t *testing.T, b *Batcher, depth int, ids ...int) <-chan decideResult {
	t.Helper()
	res := submit(b, ids...)
	deadline := time.Now().Add(5 * time.Second)
	for b.QueueDepth() < depth {
		if time.Now().After(deadline) {
			t.Fatalf("group %v never reached queue depth %d", ids, depth)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return res
}

// awaitCall waits for the engine to enter a call of want states.
func awaitCall(t *testing.T, e *gateEngine, want int) {
	t.Helper()
	select {
	case n := <-e.entered:
		if n != want {
			t.Fatalf("engine call of %d states, want %d", n, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("engine was never called")
	}
}

// checkAnswered requires every result to carry its own ids as picks.
func checkAnswered(t *testing.T, results ...<-chan decideResult) {
	t.Helper()
	for _, ch := range results {
		var r decideResult
		select {
		case r = <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("a Decide call never returned")
		}
		if r.err != nil {
			t.Fatalf("group %v: %v", r.ids, r.err)
		}
		if len(r.decs) != len(r.ids) {
			t.Fatalf("group %v: %d decisions", r.ids, len(r.decs))
		}
		for i, d := range r.decs {
			if d.Pick != r.ids[i] {
				t.Fatalf("group %v: decision %d picks %d, want %d", r.ids, i, d.Pick, r.ids[i])
			}
		}
	}
}

// TestBatcherCoalescesQueuedGroups: groups that queue while the only
// worker is inside DecideBatch run together, in arrival order, as the next
// call once it is free, and each gets its own decisions back.
func TestBatcherCoalescesQueuedGroups(t *testing.T) {
	e := newGateEngine()
	b := NewBatcher(e, BatcherConfig{Workers: 1, MaxBatch: 64})
	defer b.Close()

	first := submit(b, 0)
	awaitCall(t, e, 1)
	second := submitQueued(t, b, 1, 1, 2)
	third := submitQueued(t, b, 2, 3)
	fourth := submitQueued(t, b, 3, 4, 5, 6)
	close(e.release)
	checkAnswered(t, first, second, third, fourth)

	want := [][]int{{0}, {1, 2, 3, 4, 5, 6}}
	if got := e.recorded(); !reflect.DeepEqual(got, want) {
		t.Fatalf("engine calls %v, want %v", got, want)
	}
}

// TestBatcherMaxBatch: no engine call exceeds MaxBatch states. A group
// that would overflow the batch runs in the worker's next call, and only a
// lone group larger than MaxBatch runs above the cap.
func TestBatcherMaxBatch(t *testing.T) {
	e := newGateEngine()
	b := NewBatcher(e, BatcherConfig{Workers: 1, MaxBatch: 4})
	defer b.Close()

	results := []<-chan decideResult{submit(b, 0)}
	awaitCall(t, e, 1)
	for i, ids := range [][]int{{1, 2, 3}, {4, 5}, {6, 7, 8, 9, 10, 11}, {12}} {
		results = append(results, submitQueued(t, b, i+1, ids...))
	}
	close(e.release)
	checkAnswered(t, results...)

	want := [][]int{{0}, {1, 2, 3}, {4, 5}, {6, 7, 8, 9, 10, 11}, {12}}
	if got := e.recorded(); !reflect.DeepEqual(got, want) {
		t.Fatalf("engine calls %v, want %v", got, want)
	}
}

// TestBatcherCloseAnswersQueued: Close answers the groups already queued,
// including their callers, before it returns; later calls are refused.
func TestBatcherCloseAnswersQueued(t *testing.T) {
	e := newGateEngine()
	b := NewBatcher(e, BatcherConfig{Workers: 1, MaxBatch: 64})

	first := submit(b, 0)
	awaitCall(t, e, 1)
	second := submitQueued(t, b, 1, 1)
	third := submitQueued(t, b, 2, 2, 3)
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	<-b.quit
	close(e.release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	checkAnswered(t, first, second, third)

	want := [][]int{{0}, {1, 2, 3}}
	if got := e.recorded(); !reflect.DeepEqual(got, want) {
		t.Fatalf("engine calls %v, want %v", got, want)
	}
	if _, _, err := b.Decide(context.Background(), []*QueueState{{}}); err == nil {
		t.Fatal("Decide after Close succeeded")
	}
}
