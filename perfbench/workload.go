package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rjoin"
	"rjoin/internal/core"
	"rjoin/internal/relation"
)

// keyDomain is the number of distinct values every attribute draws
// from; perRel is how many tuples each relation receives per tick.
const (
	keyDomain = 256
	perRel    = 2
	// maxWindow is the largest window any workload query uses; tuple GC
	// (core.Config.TupleGC) may drop stored tuples older than this.
	maxWindow = 127
	// sweepEvery is the period, in virtual ticks, of the ALTT sweep
	// (Engine.SweepALTT) and of the state_entries samples the
	// steady-state self-check compares. ALTT entries otherwise expire
	// only when their key is scanned, which in a standing workload is
	// never: without the sweep the ALTT grows by two entries per tuple.
	sweepEvery = 64
	// warmTicks of stream precede the timed phase. A stored rewrite
	// lives until a tuple reaches its key after its window closes, about
	// W + 128 ticks at this key domain and rate, and deeper rewrites
	// chain on shallower ones: the population settles within a few
	// such lifetimes.
	warmTicks = 640
)

var relNames = [...]string{"R", "S", "T"}

// catalog is the benchmark's own copy of the schemas it defines on
// every network: the reference evaluator and the layer replays parse
// and build tuples against it.
var catalog = func() *relation.Catalog {
	var ss []*relation.Schema
	for _, r := range relNames {
		s, err := relation.NewSchema(r, "A", "B")
		if err != nil {
			panic(err)
		}
		ss = append(ss, s)
	}
	c, err := relation.NewCatalog(ss...)
	if err != nil {
		panic(err)
	}
	return c
}()

// spec is one named workload.
type spec struct {
	name string
	// opts configures the network; Seed is filled in per run.
	opts rjoin.Options
	// pipelines standing 3-way joins are submitted during set-up, with
	// windows 64..64+pipelines−1 ticks.
	pipelines int
	// submitsPerTick subscriptions are drawn from the sharing mix every
	// tick; once more than maxLive are live, the oldest is dropped.
	submitsPerTick int
	maxLive        int
	// churnEvery is the tick period of membership events, cycling
	// join, leave, join, crash — 2/1/1 events per 1000 ticks at 250 —
	// never below minNodes. The benchmark makes them with AddNode,
	// RemoveNode and Crash from the end of set-up on, rather than
	// through Options.Churn: rate-drawn churn varies the event count
	// from seed to seed, and churn before the standing queries are
	// placed resets the arrival counts RIC placement reads, so the
	// queries' placement — and with it the workload's cost — would
	// depend on the seed.
	churnEvery int64
	minNodes   int
	// ticksPerSec is the nominal tick rate of the untraced timed phase
	// on the reference machine (2 vCPU, Go 1.24): --seconds × ticksPerSec
	// fixes the phase length in virtual ticks, so that every counted
	// metric is a pure function of (workload, seed, seconds).
	ticksPerSec float64
	// sound marks workloads on a static, reliable ring, where a
	// delivered row beyond the anchor upper bound fails the run. Rows
	// missing below the span lower bound are reported everywhere
	// (answer_exact_frac) but not gated: the library certifies the span
	// bound only when each tuple is processed before the next is
	// published, and a streaming workload overlaps them (README.md).
	sound bool
}

var specs = []*spec{
	{
		name:        "join-steady",
		opts:        rjoin.Options{Nodes: 128},
		pipelines:   64,
		ticksPerSec: 550,
		sound:       true,
	},
	{
		name: "join-lossy-churn",
		opts: rjoin.Options{
			Nodes:             128,
			Workers:           2,
			ReplicationFactor: 2,
			Faults:            &rjoin.FaultOptions{DropProb: 0.10, DupProb: 0.05},
		},
		pipelines:   64,
		churnEvery:  250,
		minNodes:    96,
		ticksPerSec: 165,
	},
	{
		name:           "subscribe-churn",
		opts:           rjoin.Options{Nodes: 128, Sharing: true},
		submitsPerTick: 4,
		maxLive:        256,
		ticksPerSec:    600,
		sound:          true,
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// generator is the seeded load generator: the only source of the
// tuples and SQL a network receives.
type generator struct {
	rng    *rand.Rand
	churn  *rand.Rand // churn victims, apart so the stream is shared
	freshW int64      // next fresh-window size of the sharing mix
	events int        // membership events made so far
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), churn: rand.New(rand.NewSource(^seed)), freshW: 65}
}

// tuple is one generated tuple: relation index and its (A, B) values.
type tuple struct {
	rel  int
	a, b int64
}

// tick draws one tick's stream: perRel tuples per relation, values
// uniform over the key domain.
func (g *generator) tick(buf []tuple) []tuple {
	buf = buf[:0]
	for r := range relNames {
		for i := 0; i < perRel; i++ {
			buf = append(buf, tuple{rel: r, a: g.rng.Int63n(keyDomain), b: g.rng.Int63n(keyDomain)})
		}
	}
	return buf
}

// preload draws the tuples that put every value-level key's tuple
// store at a uniformly random point of its GC cycle. Tuple GC prunes a
// key's store only when its length reaches a multiple of 32, so a
// network started empty ramps every store in lockstep for thousands of
// ticks; starting each key at a count drawn from [0, 32) gives the
// stationary sawtooth at once. Each relation's A and B values are
// drawn with those multiplicities, padded uniformly to preloadPerRel
// and paired at random. Every relation gets exactly preloadPerRel
// tuples: RIC placement reads arrival counts, and with unequal counts
// all standing queries would go to whichever relation the seed left
// lightest, splitting the workload's cost into seed-chosen modes.
func (g *generator) preload() []tuple {
	const preloadPerRel = 32 * keyDomain / 2 * 9 / 8 // the mean 15.5 per key, plus slack
	var out []tuple
	for r := range relNames {
		var as, bs []int64
		for v := int64(0); v < keyDomain; v++ {
			for n := g.rng.Intn(32); n > 0; n-- {
				as = append(as, v)
			}
			for n := g.rng.Intn(32); n > 0; n-- {
				bs = append(bs, v)
			}
		}
		as, bs = as[:min(len(as), preloadPerRel)], bs[:min(len(bs), preloadPerRel)]
		for len(as) < preloadPerRel {
			as = append(as, g.rng.Int63n(keyDomain))
		}
		for len(bs) < preloadPerRel {
			bs = append(bs, g.rng.Int63n(keyDomain))
		}
		g.rng.Shuffle(len(as), func(i, j int) { as[i], as[j] = as[j], as[i] })
		g.rng.Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
		for i := range as {
			out = append(out, tuple{rel: r, a: as[i], b: bs[i]})
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// pipelineSQL is the paper's standing 3-way join with window w.
func pipelineSQL(w int64) string {
	return fmt.Sprintf("select R.B, T.B from R, S, T where R.A = S.A and S.B = T.B within %d ticks", w)
}

// submission draws one query of the sharing mix.
func (g *generator) submission() string {
	switch k := g.rng.Intn(20); {
	case k < 6: // 2-way join with a constant selection: attaches to a class
		return fmt.Sprintf("select R.B, S.B from R, S where R.A = S.A and S.B = %d within 64 ticks", g.rng.Int63n(keyDomain))
	case k < 10: // an equivalent reordered form
		return "select S.B, R.B from S, R where S.A = R.A within 64 ticks"
	case k < 14: // the 3-way join: rides the 2-way class by containment
		return pipelineSQL(64)
	case k < 17: // tumbling group-by counts
		return "select S.B, count(*) from R, S where R.A = S.A group by S.B within 64 ticks tumbling"
	default: // a fresh window: a new pipeline
		w := g.freshW
		g.freshW++
		if g.freshW > maxWindow {
			g.freshW = 65
		}
		return pipelineSQL(w)
	}
}

// subRec is the benchmark's record of one subscription.
type subRec struct {
	sub    *rjoin.Subscription
	sql    string
	insert int64 // virtual tick of Subscribe
	end    int64 // virtual tick of Unsubscribe; -1 while live
	// answers holds the delivered rows, captured before Unsubscribe
	// releases them (and at the end for live subscriptions).
	answers []core.Answer
}

// pass is one network driven through set-up and a timed phase.
type pass struct {
	spec    *spec
	seed    int64
	net     *rjoin.Network
	gen     *generator
	ref     *refStream
	pubSeq  int64
	subs    []*subRec
	live    []*subRec // FIFO of live mix subscriptions
	spans   *spanLog  // nil unless traced
	buf     []tuple
	attempt int64 // library calls made in the timed phase
	failed  int64 // ... of which returned an error

	tickNs   []int64
	submitNs []int64 // Subscribe/Unsubscribe wall times of the timed phase
	drainNs  int64
	sweepNs  int64     // ALTT sweeps of the timed phase
	pending  []float64 // scheduler queue lengths at the state samples
	states   []int64   // state_entries every sweepEvery timed ticks
}

// observe selects the instrumentation of a pass.
type observe struct {
	metrics bool // Options.Metrics (virtual-time answer latency)
	spans   bool // in-memory spans around every library call
}

// setup builds a network, defines the relations, enables tuple GC,
// preloads the tuple stores, submits the standing queries and warms the
// stream up until windows and stored rewrites are at steady state.
func setup(sp *spec, seed int64, obs observe) (*pass, error) {
	opts := sp.opts
	opts.Seed = seed
	if obs.metrics {
		opts.Metrics = &rjoin.MetricsOptions{}
	}
	net, err := rjoin.NewNetwork(opts)
	if err != nil {
		return nil, err
	}
	for _, r := range relNames {
		if err := net.DefineRelation(r, "A", "B"); err != nil {
			return nil, err
		}
	}
	cfg := &net.Engine().Cfg
	cfg.TupleGC = true
	cfg.MaxWindowHint = maxWindow
	p := &pass{spec: sp, seed: seed, net: net, gen: newGenerator(seed), ref: newRefStream()}
	if obs.spans {
		p.spans = newSpanLog()
	}
	// Fill the ALTT: attribute-level entries live Δ ticks after
	// arrival, so the steady-state table holds the last Δ ticks of
	// stream. Δ is 36 ticks on a reliable ring but thousands under
	// faults (the retransmit ladder bounds the delay), far longer than
	// any warm-up could stream at full cost; with no queries yet, the
	// same stream rate, batched every 16 ticks, fills it cheaply.
	//
	// One R tuple per batch is left out. RIC placement sends each
	// standing query to the candidate with the fewest arrivals in the
	// last complete RIC epoch. On a reliable ring the four attribute
	// candidates tie exactly and clause order picks R.A; under faults,
	// retransmissions shift a few arrivals across epoch boundaries, so
	// the winner — and with it the pipelines' shape and cost — would
	// be drawn by the seed. The 1/32 deficit of R makes R.A the
	// placement on every ring, and leaves the ALTT within 1% of its
	// steady-state size.
	const batch = 16
	for t := int64(0); t < p.net.Engine().Delta(); t += batch {
		for i := 0; i < batch; i++ {
			for j, tu := range p.gen.tick(p.buf) {
				if i == 0 && j == 0 {
					continue
				}
				if err := p.publish(tu, false); err != nil {
					return nil, err
				}
			}
		}
		p.runFor(batch)
	}
	// Then the tuple stores, at 64 tuples a tick, and idle past every
	// window so no preloaded tuple can join with the measured stream.
	pre := p.gen.preload()
	for i := 0; i < len(pre); i += 64 {
		for _, t := range pre[i:min(i+64, len(pre))] {
			if err := p.publish(t, false); err != nil {
				return nil, err
			}
		}
		p.runFor(1)
	}
	p.runFor(2 * maxWindow)
	for i := 0; i < sp.pipelines; i++ {
		if _, err := p.subscribe(pipelineSQL(64+int64(i)), nil); err != nil {
			return nil, err
		}
	}
	// Warm-up: the mix fills up to maxLive subscriptions, then
	// warmTicks of stream let the stored-rewrite population settle.
	for i := 0; i < warmTicks+sp.maxLive/max(1, sp.submitsPerTick); i++ {
		if err := p.tick(false); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// publish sends one generated tuple and records it for the reference.
func (p *pass) publish(t tuple, timed bool) error {
	rel := relNames[t.rel]
	start := p.spans.start()
	err := p.net.Publish(rel, t.a, t.b)
	p.spans.end("Publish", start)
	if timed {
		p.attempt++
		if err != nil {
			p.failed++
		}
	}
	if err != nil {
		return err
	}
	p.pubSeq++
	s, _ := catalog.Schema(rel)
	rt, _ := relation.NewTuple(s, relation.Int64(t.a), relation.Int64(t.b))
	rt.PubTime, rt.PubSeq = p.net.Now(), p.pubSeq
	p.ref.add(rt)
	return nil
}

func (p *pass) runFor(d int64) {
	start := p.spans.start()
	p.net.RunFor(d)
	p.spans.end("RunFor", start)
}

// subscribe submits one query; ns, when non-nil, receives the wall
// time of the call.
func (p *pass) subscribe(sql string, ns *[]int64) (*subRec, error) {
	start := p.spans.start()
	t0 := time.Now()
	sub, err := p.net.Subscribe(sql)
	d := time.Since(t0)
	p.spans.end("Subscribe", start)
	if ns != nil {
		*ns = append(*ns, d.Nanoseconds())
	}
	if err != nil {
		return nil, err
	}
	r := &subRec{sub: sub, sql: sql, insert: p.net.Now(), end: -1}
	p.subs = append(p.subs, r)
	return r, nil
}

// unsubscribe drops the oldest live mix subscription, keeping its
// delivered rows for the correctness gate.
func (p *pass) unsubscribe(ns *[]int64) error {
	r := p.live[0]
	p.live = p.live[1:]
	r.answers = p.net.Engine().Answers(r.sub.ID)
	r.end = p.net.Now()
	start := p.spans.start()
	t0 := time.Now()
	err := r.sub.Unsubscribe()
	d := time.Since(t0)
	p.spans.end("Unsubscribe", start)
	if ns != nil {
		*ns = append(*ns, d.Nanoseconds())
	}
	return err
}

// churn makes the next membership event of the cycle join, leave,
// join, crash; a leave or crash that would take the ring below
// minNodes is skipped.
func (p *pass) churn() error {
	g := p.gen
	kind := g.events % 4
	g.events++
	victim := g.churn.Intn(p.net.Nodes())
	start := p.spans.start()
	var err error
	switch {
	case kind%2 == 0:
		err = p.net.AddNode()
	case p.net.Nodes() <= p.spec.minNodes:
	case kind == 1:
		err = p.net.RemoveNode(victim)
	default:
		err = p.net.Crash(victim)
	}
	p.spans.end("Churn", start)
	return err
}

// tick drives one virtual tick: the mix submissions, the stream, and
// RunFor(1). Timed ticks record their wall time and count calls.
func (p *pass) tick(timed bool) error {
	p.buf = p.gen.tick(p.buf)
	sqls := make([]string, p.spec.submitsPerTick)
	for i := range sqls {
		sqls[i] = p.gen.submission()
	}
	var ns *[]int64
	if timed {
		ns = &p.submitNs
	}
	t0 := time.Now()
	if sp := p.spec; sp.churnEvery > 0 && p.net.Now()%sp.churnEvery == 0 {
		err := p.churn()
		if timed {
			p.attempt++
		}
		if err != nil {
			if timed {
				p.failed++
			}
			return err
		}
	}
	for _, sql := range sqls {
		r, err := p.subscribe(sql, ns)
		if timed {
			p.attempt++
		}
		if err != nil {
			if timed {
				p.failed++
			}
			return err
		}
		p.live = append(p.live, r)
		for len(p.live) > p.spec.maxLive {
			err := p.unsubscribe(ns)
			if timed {
				p.attempt++
			}
			if err != nil {
				if timed {
					p.failed++
				}
				return err
			}
		}
	}
	for _, t := range p.buf {
		if err := p.publish(t, timed); err != nil {
			return err
		}
	}
	p.runFor(1)
	if timed {
		p.tickNs = append(p.tickNs, time.Since(t0).Nanoseconds())
	}
	if p.net.Now()%sweepEvery == 0 {
		if timed {
			q, t, a := p.net.Engine().StoredState()
			p.states = append(p.states, int64(q+t+a))
			p.pending = append(p.pending, float64(p.net.Engine().Sim().Pending()))
		}
		start := p.spans.start()
		t0 := time.Now()
		p.net.Engine().SweepALTT()
		if timed {
			p.sweepNs += time.Since(t0).Nanoseconds()
		}
		p.spans.end("SweepALTT", start)
	}
	return nil
}

// timedPhase drives the measured ticks, then drains the network to
// quiescence (Run), and captures every live subscription's rows.
func (p *pass) timedPhase(ticks int) error {
	p.tickNs = make([]int64, 0, ticks)
	for i := 0; i < ticks; i++ {
		if err := p.tick(true); err != nil {
			return err
		}
	}
	start := p.spans.start()
	t0 := time.Now()
	p.net.Run()
	p.drainNs = time.Since(t0).Nanoseconds()
	p.spans.end("Run", start)
	for _, r := range p.subs {
		if r.end < 0 {
			r.answers = p.net.Engine().Answers(r.sub.ID)
		}
	}
	return nil
}

// probeSubmits times n Subscribe calls of distinct new pipelines
// (the 3-way join with a selection on R.B and a window of 1..63
// ticks, below every standing one) on the drained network. None is
// run, and the network is discarded afterwards. Unsubscribe is not
// probed: tearing a pipeline down sweeps every node, about 50 times
// the cost of a Subscribe, and an even mix of the two would put the
// median in the gap between them.
//
// Back to back, 1024 calls take about 20 ms, and the machine's state
// over so short a span set the median of a whole run (12 or 21 µs, run
// by run). The calls therefore go in rounds of 256, 60 ms apart, so the
// samples span about a second. The first call of a round runs cold;
// with 16 rounds those 16 calls stay well inside the 1% above p99,
// which would otherwise rest on them alone.
func (p *pass) probeSubmits(n int) ([]int64, error) {
	runtime.GC()
	ns := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && i%256 == 0 {
			time.Sleep(60 * time.Millisecond)
		}
		sql := fmt.Sprintf("select R.B, T.B from R, S, T where R.A = S.A and S.B = T.B and R.B = %d within %d ticks", i/63, 1+i%63)
		if _, err := p.subscribe(sql, &ns); err != nil {
			return nil, err
		}
	}
	return ns, nil
}

// heapLiveMB forces a collection and reports the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
