package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// group is one submitted unit of work: all queue states of one HTTP
// request, answered together. Grouping whole requests (instead of one
// channel hop per state) keeps the per-decision synchronization cost
// constant under pipelined load.
type group struct {
	states []*QueueState
	out    []Decision
	policy string // name of the engine that decided the group
	done   chan struct{}
}

// engineBox makes the Engine interface value swappable via atomic.Pointer.
type engineBox struct{ e Engine }

// Batcher runs decision requests on a fixed pool of workers that pull
// groups off one queue. It is work-conserving: a free worker dispatches at
// once, never holding a request back for others to batch with. Groups that
// queued while every worker was busy share one DecideBatch call (up to
// MaxBatch states), so batches grow with load and an idle daemon answers
// a lone request with no added wait.
type Batcher struct {
	queue    chan *group
	quit     chan struct{} // closed by Close: workers drain the queue and exit
	stopped  chan struct{} // closed once every worker has exited
	maxBatch int
	engine   atomic.Pointer[engineBox]

	wg     sync.WaitGroup
	closed atomic.Bool

	// decisions and batches feed the /metrics histograms.
	onBatch func(states int)
}

// BatcherConfig sizes a Batcher. Zero values take defaults: workers =
// GOMAXPROCS, maxBatch = 64 states.
type BatcherConfig struct {
	Workers  int
	MaxBatch int
	// OnBatch, when set, observes every engine call's batch size.
	OnBatch func(states int)
}

// NewBatcher starts the worker pool serving the given engine.
func NewBatcher(e Engine, cfg BatcherConfig) *Batcher {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	b := &Batcher{
		queue:    make(chan *group, 4*cfg.MaxBatch),
		quit:     make(chan struct{}),
		stopped:  make(chan struct{}),
		maxBatch: cfg.MaxBatch,
		onBatch:  cfg.OnBatch,
	}
	b.engine.Store(&engineBox{e})
	b.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go b.worker()
	}
	return b
}

// Engine returns the currently served engine.
func (b *Batcher) Engine() Engine { return b.engine.Load().e }

// QueueDepth reports how many request groups are waiting in the batching
// queue right now — the backpressure signal the SLO monitor's high-water
// overload check reads.
func (b *Batcher) QueueDepth() int { return len(b.queue) }

// Swap atomically replaces the engine. In-flight batches finish on the
// engine they started with; queued and future work uses the new one. No
// request is dropped.
func (b *Batcher) Swap(e Engine) { b.engine.Store(&engineBox{e}) }

// Close stops the workers after answering whatever is queued. The queue
// channel is never closed, so a handler racing Close (e.g. when an HTTP
// graceful-shutdown deadline expires with requests still in flight) gets
// an error instead of a send-on-closed-channel panic.
func (b *Batcher) Close() {
	if b.closed.CompareAndSwap(false, true) {
		close(b.quit)
		b.wg.Wait()
		close(b.stopped)
	}
}

// Decide answers all states of one request, blocking until the batcher has
// run them (or ctx expires, leaving the work to be discarded when served).
// It also returns the name of the engine that decided the request, which
// during a hot-swap window can differ from the currently served engine.
func (b *Batcher) Decide(ctx context.Context, states []*QueueState) ([]Decision, string, error) {
	if len(states) == 0 {
		return nil, "", nil
	}
	if b.closed.Load() {
		return nil, "", fmt.Errorf("serve: batcher is shut down")
	}
	g := &group{states: states, out: make([]Decision, len(states)), done: make(chan struct{})}
	select {
	case b.queue <- g:
	case <-b.quit:
		return nil, "", fmt.Errorf("serve: batcher is shut down")
	case <-ctx.Done():
		return nil, "", fmt.Errorf("serve: queue full: %w", ctx.Err())
	}
	select {
	case <-g.done:
		return g.out, g.policy, nil
	case <-b.stopped:
		// A group the exited workers did not take is never answered.
		select {
		case <-g.done:
			return g.out, g.policy, nil
		default:
			return nil, "", fmt.Errorf("serve: batcher is shut down")
		}
	case <-ctx.Done():
		return nil, "", ctx.Err()
	}
}

// worker is the dispatch loop. It never waits for company: it takes the
// first queued group, adds the groups already queued behind it while they
// fit in MaxBatch states, and runs them at once. A group that would
// overflow the batch is carried into this worker's next batch, so a lone
// group larger than MaxBatch is the only call that exceeds it.
func (b *Batcher) worker() {
	defer b.wg.Done()
	var (
		groups []*group
		states []*QueueState
		out    []Decision
		carry  *group
	)
	for {
		first := carry
		carry = nil
		if first == nil {
			select {
			case first = <-b.queue:
			case <-b.quit:
				// Answer whatever made it into the queue, then stop.
				select {
				case first = <-b.queue:
				default:
					return
				}
			}
		}
		groups = append(groups[:0], first)
		n := len(first.states)
	drain:
		for n < b.maxBatch {
			select {
			case g := <-b.queue:
				if n+len(g.states) > b.maxBatch {
					carry = g
					break drain
				}
				groups = append(groups, g)
				n += len(g.states)
			default:
				break drain
			}
		}

		states = states[:0]
		for _, g := range groups {
			states = append(states, g.states...)
		}
		if cap(out) < len(states) {
			out = make([]Decision, len(states))
		}
		out = out[:len(states)]
		eng := b.engine.Load().e
		eng.DecideBatch(states, out)
		if b.onBatch != nil {
			b.onBatch(len(states))
		}
		i := 0
		for _, g := range groups {
			copy(g.out, out[i:i+len(g.states)])
			g.policy = eng.Name()
			i += len(g.states)
			close(g.done)
		}
	}
}
