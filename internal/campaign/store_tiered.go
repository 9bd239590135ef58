package campaign

import (
	"context"
	"sync"
	"time"

	"extrareq/internal/obs"
)

// TieredStore layers a fast local Store (typically a DiskStore) over a
// slower remote one:
//
//   - Load is read-through: local first; on a local miss the remote is
//     consulted and a hit is filled back into the local tier so the next
//     process restart doesn't pay the network again.
//   - Store writes the local tier synchronously — that is the durability
//     the Scheduler's write-degradation latch protects — and enqueues the
//     remote write on a bounded write-behind queue drained by one
//     background goroutine. A full queue drops the remote copy (counted
//     via store_remote_dropped) rather than stalling measurement.
//   - Sync flushes the local tier, then blocks until every remote write
//     enqueued so far has been attempted — the drain path calls this so a
//     terminating shard publishes its points before exiting.
//
// Local-tier errors propagate (they mean local durability is gone);
// remote-tier errors never do — the remote layer absorbs its own failures
// by design.
type TieredStore struct {
	local  Store
	remote Store

	writes chan tieredWrite
	quit   chan struct{}
	done   chan struct{}

	mu      sync.Mutex
	closed  bool
	dropped *obs.Counter // store_remote_dropped (nil without a registry)
}

// tieredWrite is one queued remote write; flush is non-nil for the
// sentinel tokens Sync threads through the queue to observe its drain.
type tieredWrite struct {
	k     Key
	data  []byte
	flush chan struct{}
}

// TieredOptions configures NewTieredStore; the zero value selects the
// defaults documented per field.
type TieredOptions struct {
	// QueueDepth bounds the remote write-behind queue; <= 0 selects
	// DefaultTieredQueueDepth. Writes beyond the bound are dropped.
	QueueDepth int
	// WriteTimeout bounds each background remote write; <= 0 selects
	// DefaultTieredWriteTimeout.
	WriteTimeout time.Duration
	// Metrics receives the store_remote_dropped counter for writes shed
	// by a full queue; nil disables it. The remote tier carries its own
	// instruments for writes that actually reach it.
	Metrics *obs.Registry
}

// Tiered store defaults.
const (
	DefaultTieredQueueDepth   = 256
	DefaultTieredWriteTimeout = 10 * time.Second
)

// NewTieredStore builds the local-over-remote tier and starts its
// write-behind worker. Close (or a final Sync then Close) releases it.
func NewTieredStore(local, remote Store, o TieredOptions) *TieredStore {
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultTieredQueueDepth
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = DefaultTieredWriteTimeout
	}
	s := &TieredStore{
		local:   local,
		remote:  remote,
		writes:  make(chan tieredWrite, o.QueueDepth),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		dropped: o.Metrics.Counter(obs.MetricStoreRemoteDropped),
	}
	go s.drain(o.WriteTimeout)
	return s
}

// OpenStore resolves the cache settings every entry point shares into
// scheduler Options: a DiskStore in dir (dir alone), a RemoteStore at
// remoteURL (remoteURL alone), a TieredStore layering the DiskStore over
// the remote (both: local reads first, write-behind to the remote), or no
// persistent tier (neither). reg receives the store_remote_* instruments
// and may be nil; logf receives operational warnings (nil selects
// log.Printf). The returned cleanup, to be called after the scheduler has
// closed, flushes the tiered write-behind queue so a short-lived process
// publishes its points before exiting, then stops the worker; it is a
// no-op for the other shapes.
func OpenStore(dir, remoteURL string, reg *obs.Registry, logf func(format string, args ...any)) (Options, func(), error) {
	opts := Options{Logf: logf}
	nop := func() {}
	if remoteURL == "" {
		opts.Dir = dir
		return opts, nop, nil
	}
	remote, err := NewRemoteStore(remoteURL, RemoteOptions{Metrics: reg, Logf: logf})
	if err != nil {
		return Options{}, nil, err
	}
	if dir == "" {
		opts.Store = remote
		return opts, nop, nil
	}
	disk, err := OpenDiskStore(dir)
	if err != nil {
		return Options{}, nil, err
	}
	tiered := NewTieredStore(disk, remote, TieredOptions{Metrics: reg})
	opts.Store = tiered
	return opts, func() {
		tiered.Sync(context.Background())
		tiered.Close()
	}, nil
}

// Status merges the tiers: writes are degraded if the local tier says so,
// and the breaker flag surfaces from the remote tier.
func (s *TieredStore) Status() StoreStatus {
	st := StoreStatus{Kind: "tiered"}
	if r, ok := s.local.(StatusReporter); ok {
		st.WritesDegraded = r.Status().WritesDegraded
	}
	if r, ok := s.remote.(StatusReporter); ok {
		st.BreakerOpen = r.Status().BreakerOpen
	}
	return st
}

// Load reads through the tiers: local, then remote with local fill.
func (s *TieredStore) Load(ctx context.Context, k Key) ([]byte, bool) {
	if data, ok := s.local.Load(ctx, k); ok {
		return data, true
	}
	data, ok := s.remote.Load(ctx, k)
	if !ok {
		return nil, false
	}
	// Fill the local tier so the hit is free next time. A local write
	// failure is not this read's problem — the bytes are in hand.
	s.local.Store(ctx, k, data)
	return data, true
}

// Store writes the local tier synchronously and enqueues the remote copy.
// The returned error is the local tier's alone.
func (s *TieredStore) Store(ctx context.Context, k Key, data []byte) error {
	err := s.local.Store(ctx, k, data)
	s.enqueue(tieredWrite{k: k, data: data})
	return err
}

// Sync flushes the local tier, then waits for the write-behind queue to
// drain through the point it was called. Queued writes that the worker
// subsequently drops (breaker open, remote down) still count as drained —
// Sync promises an attempt, not remote durability.
func (s *TieredStore) Sync(ctx context.Context) error {
	err := s.local.Sync(ctx)
	flushed := make(chan struct{})
	if !s.enqueue(tieredWrite{flush: flushed}) {
		return err // closed or queue full: nothing more to wait for
	}
	select {
	case <-flushed:
	case <-s.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return err
}

// Close stops the write-behind worker after it finishes the write in
// flight; queued writes behind it are discarded. Call Sync first for a
// graceful drain. Close does not close the underlying tiers — they may
// be shared — and is idempotent.
func (s *TieredStore) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.quit)
	<-s.done
}

// enqueue offers w to the write-behind queue without blocking, reporting
// whether it was accepted.
func (s *TieredStore) enqueue(w tieredWrite) bool {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		if w.flush == nil {
			s.dropped.Inc()
		}
		return false
	}
	select {
	case s.writes <- w:
		return true
	default:
		if w.flush == nil {
			s.dropped.Inc()
		}
		return false
	}
}

// drain is the write-behind worker: it forwards queued writes to the
// remote tier under its own deadline (the enqueuing request is long gone)
// and answers Sync's flush tokens once everything ahead of them has been
// attempted.
func (s *TieredStore) drain(writeTimeout time.Duration) {
	defer close(s.done)
	for {
		select {
		case <-s.quit:
			return
		case w := <-s.writes:
			if w.flush != nil {
				close(w.flush)
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), writeTimeout)
			s.remote.Store(ctx, w.k, w.data)
			cancel()
		}
	}
}
