package cluster

import (
	"sync"

	"rtroute/internal/core"
	"rtroute/internal/telemetry"
	"rtroute/internal/wire"
)

// Fabric is the in-process cluster both in-process drivers stand on:
// one Shard per view over one ChanBus, the credit Window capping live
// roundtrips, the serve goroutines with their first-error abort, and the
// one windowed injector. Run (the serving engine) and the root package's
// RunChurnCluster (the churn driver) differ only in what they inject and
// how they account completions; everything that moves frames is here.
//
// Deadlock freedom is by counting: every live roundtrip occupies at most
// one queued frame (a batched inject of k roundtrips is one message,
// strictly fewer), so mailboxes of InFlight + Shards batches — the extra
// Shards for one broadcast frame per shard — never cycle-wait.
type Fabric struct {
	bus    *ChanBus
	window *Window
	shards []*Shard
	// owner maps a topology-independent name to the shard owning its
	// node; names never move, so the table is fixed at construction.
	owner []int32
	pool  msgPool
	wg    sync.WaitGroup

	mu  sync.Mutex
	err error
}

// FabricConfig assembles a Fabric.
type FabricConfig struct {
	// Place partitions the nodes; its shard count is the fabric width.
	Place *Placement
	// InFlight caps concurrently live roundtrips (default 512).
	InFlight int
	// Shard returns shard i's view and serving options. The fabric
	// returns a window credit on every completion and every loss before
	// calling the options' own OnDone / OnLost.
	Shard func(i int) (*core.ShardView, Options, error)
	// Wrap, when non-nil, wraps each shard's bus endpoint — the test
	// hook the reordering-adversary certifications splice in.
	Wrap func(shard int, tr Transport) Transport
}

// NewFabric builds the shards over a fresh bus; Start serves them.
func NewFabric(cfg FabricConfig) (*Fabric, error) {
	inFlight := cfg.InFlight
	if inFlight <= 0 {
		inFlight = 512
	}
	place := cfg.Place
	// Every live inject message carries a live roundtrip, so at most
	// InFlight of them exist at once: pools this size never drop one.
	capacity := inFlight + place.Shards
	f := &Fabric{
		bus:    NewChanBus(place.Shards, capacity),
		window: NewWindow(inFlight),
		shards: make([]*Shard, place.Shards),
		pool:   msgPool{bufs: make(chan []byte, capacity), slabs: make(chan []InFrame, capacity)},
	}
	for i := range f.shards {
		view, opts, err := cfg.Shard(i)
		if err != nil {
			return nil, err
		}
		if f.owner == nil {
			f.owner = make([]int32, view.Graph().N())
			for name := range f.owner {
				f.owner[name] = int32(place.Shard(view.NodeOf(int32(name))))
			}
		}
		onDone, onLost := opts.OnDone, opts.OnLost
		opts.OnDone = func(fr *wire.Frame) {
			f.window.Put(1)
			if onDone != nil {
				onDone(fr)
			}
		}
		opts.OnLost = func(fr *wire.Frame, reason byte) {
			f.window.Put(1)
			if onLost != nil {
				onLost(fr, reason)
			}
		}
		tr := f.bus.Endpoint(i)
		if cfg.Wrap != nil {
			tr = cfg.Wrap(i, tr)
		}
		f.shards[i] = NewShard(view, place, tr, opts)
		f.shards[i].pool = &f.pool
	}
	return f, nil
}

// Start launches every shard's Serve; a shard error aborts the fabric.
func (f *Fabric) Start() {
	for _, sh := range f.shards {
		f.wg.Add(1)
		go func(sh *Shard) {
			defer f.wg.Done()
			if err := sh.Serve(); err != nil {
				f.abort(err)
			}
		}(sh)
	}
}

// Shards returns the fabric's shards, indexed by shard number.
func (f *Fabric) Shards() []*Shard { return f.shards }

// abort records err as the run's failure (the first one wins) and shuts
// the bus, which stops every shard and injector.
func (f *Fabric) abort(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
	f.bus.Close()
}

// Close shuts the bus down: the clean end of a run.
func (f *Fabric) Close() { f.bus.Close() }

// Done is closed when the bus shuts down, cleanly or by abort.
func (f *Fabric) Done() <-chan struct{} { return f.bus.Done() }

// Wait blocks until every shard has stopped serving (after Close or a
// shard failure) and returns the first failure.
func (f *Fabric) Wait() error {
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Broadcast delivers a copy of frame to every shard: the transport owns
// delivered bytes, and shards recycle them into their own pools.
func (f *Fabric) Broadcast(frame []byte) error {
	for i := range f.shards {
		if err := f.bus.SendBatch(i, []InFrame{{Data: append([]byte(nil), frame...)}}); err != nil {
			return err
		}
	}
	return nil
}

// msgPool returns the injector's message storage — inject-batch buffers
// and the one-frame slices carrying them — from the shards that consumed
// it. Without it every inject message would be two fresh allocations
// that land in the receiving worker's pools, which only have room for
// what the worker itself ships.
type msgPool struct {
	bufs  chan []byte
	slabs chan []InFrame
}

// buf pops a pooled buffer of at least size bytes, or cuts one.
func (p *msgPool) buf(size int, allocs *int64) []byte {
	select {
	case b := <-p.bufs:
		if cap(b) >= size {
			return b[:0]
		}
	default:
	}
	*allocs++
	return make([]byte, 0, size)
}

// message wraps data as a one-frame transport message in a pooled slice.
func (p *msgPool) message(data []byte, allocs *int64) []InFrame {
	select {
	case m := <-p.slabs:
		return append(m, InFrame{Data: data})
	default:
	}
	*allocs++
	return []InFrame{{Data: data}}
}

// putBuf hands a consumed inject buffer back, reporting whether the pool
// took it (a nil pool — any shard outside a Fabric — never does).
func (p *msgPool) putBuf(b []byte) bool {
	if p == nil {
		return false
	}
	select {
	case p.bufs <- b:
		return true
	default:
		return false
	}
}

// putSlab hands back a consumed batch slice too small for the worker's
// own slab pool.
func (p *msgPool) putSlab(frames []InFrame) {
	if p == nil {
		return
	}
	clear(frames)
	select {
	case p.slabs <- frames[:0]:
	default:
	}
}

// Injector is one windowed injection stream into a Fabric. It takes a
// burst of credits, draws that many roundtrips, and ships them grouped
// per owning shard as one inject-batch message each: one window
// rendezvous and one mailbox send per burst and owner, not per
// roundtrip. Not safe for concurrent use; each injecting goroutine
// takes its own.
type Injector struct {
	fab     *Fabric
	p       *telemetry.Probe
	burst   int
	byOwner [][]wire.InjectEntry
	// sent counts roundtrips injected; allocs counts tracked allocation
	// events (pool misses and grouping growth).
	sent   int64
	allocs int64
}

// NewInjector returns one of streams concurrent injection streams; the
// burst scales with each stream's share of the window (Take never
// over-claims: it hands out at most what is available). p is the
// stream's telemetry probe (nil = off).
func (f *Fabric) NewInjector(streams int, p *telemetry.Probe) *Injector {
	burst := f.window.Size() / (2 * max(streams, 1))
	return &Injector{
		fab: f, p: p,
		burst:   min(max(burst, 64), 256),
		byOwner: make([][]wire.InjectEntry, len(f.shards)),
	}
}

// Inject starts count roundtrips, the k-th (from 0) being draw(k), and
// returns once all of them are on the bus — not once they complete. It
// fails with ErrClosed if the fabric shuts down first.
//
// The probe mirrors the worker discipline: one BatchStart per burst,
// credit wait its own (excluded) stage, a publish after every burst.
func (in *Injector) Inject(count int64, draw func(k int64) wire.InjectEntry) error {
	f := in.fab
	defer in.publish()
	for k := int64(0); k < count; {
		want := int(min(count-k, int64(in.burst)))
		t := in.p.BatchStart(0)
		n := f.window.Take(want, f.bus.Done())
		t = in.p.Lap(telemetry.StageCredit, t)
		if n == 0 {
			return ErrClosed
		}
		for end := k + int64(n); k < end; k++ {
			e := draw(k)
			o := f.owner[e.Src]
			if len(in.byOwner[o]) == cap(in.byOwner[o]) {
				in.allocs++
			}
			in.byOwner[o] = append(in.byOwner[o], e)
		}
		in.sent += int64(n)
		t = in.p.Lap(telemetry.StageInject, t)
		for o, entries := range in.byOwner {
			if len(entries) == 0 {
				continue
			}
			// 21 bytes bound one entry's varints; every pooled buffer
			// fits a whole burst, so the pool never churns on size.
			buf := f.pool.buf(32+21*in.burst, &in.allocs)
			data := wire.AppendInjectBatch(buf, wire.HomeLocal, 0, entries)
			in.byOwner[o] = entries[:0]
			if err := f.bus.SendBatch(o, f.pool.message(data, &in.allocs)); err != nil {
				return err
			}
		}
		in.p.Lap(telemetry.StageSend, t)
		in.publish()
	}
	return nil
}

func (in *Injector) publish() {
	if in.p != nil {
		in.p.Publish(telemetry.Counters{Injects: in.sent, Allocs: in.allocs})
	}
}
