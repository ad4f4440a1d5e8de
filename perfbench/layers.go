package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/share"
	"rjoin/internal/sim"
	"rjoin/internal/sqlparse"
)

// outDir receives the traced pass's CPU profile and spans. It is
// relative to the working directory, the root of the checkout.
const outDir = ".bench_build/perfbench"

// span is one timed call from the benchmark into the library.
type span struct {
	name       string
	start, dur int64 // ns since the log's base
}

// spanLog keeps spans in memory during the traced pass; a nil log
// records nothing and costs one nil check.
type spanLog struct {
	base  time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now(), spans: make([]span, 0, 1<<16)} }

func (l *spanLog) start() int64 {
	if l == nil {
		return 0
	}
	return time.Since(l.base).Nanoseconds()
}

func (l *spanLog) end(name string, start int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{name: name, start: start, dur: time.Since(l.base).Nanoseconds() - start})
}

// durations returns the wall times of the spans with the given name.
func (l *spanLog) durations(name string) []int64 {
	var out []int64
	for _, s := range l.spans {
		if s.name == name {
			out = append(out, s.dur)
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range l.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"dur_ns\":%d}\n", s.name, s.start, s.dur)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeSample is a runtime/metrics snapshot: counters as floats,
// histograms copied (the runtime reuses their storage between reads).
type runtimeSample struct {
	scalars map[string]float64
	hists   map[string]*metrics.Float64Histogram
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	r := runtimeSample{scalars: map[string]float64{}, hists: map[string]*metrics.Float64Histogram{}}
	for _, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			r.scalars[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			r.scalars[s.Name] = s.Value.Float64()
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			r.hists[s.Name] = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
		}
	}
	return r
}

// histDeltaQuantile is the q-quantile, in seconds, of the observations
// a runtime histogram gained between two reads (the upper bound of the
// bucket that holds it).
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if cum >= target {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// layerRun is the instrumentation of the traced pass.
type layerRun struct {
	profile string
	f       *os.File
}

// startLayers starts the CPU profile of the traced pass.
func startLayers(p *pass) *layerRun {
	l := &layerRun{}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return l
	}
	l.profile = filepath.Join(outDir, fmt.Sprintf("%s-%d.cpu.pprof", p.spec.name, p.seed))
	f, err := os.Create(l.profile)
	if err != nil {
		l.profile = ""
		return l
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		l.profile = ""
		return l
	}
	l.f = f
	return l
}

func (l *layerRun) stopProfile() {
	if l.f != nil {
		pprof.StopCPUProfile()
		l.f.Close()
		l.f = nil
	}
}

// layerOf maps a Go package path to the benchmark's layer names.
func layerOf(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "rjoin/internal/obs"):
		return "obs"
	case strings.HasPrefix(pkg, "rjoin/internal/"):
		l := strings.TrimPrefix(pkg, "rjoin/internal/")
		switch l {
		case "sim", "chord", "overlay", "reliable", "churn", "core", "query", "relation", "share", "agg", "sqlparse":
			return l
		}
		return "other"
	case pkg == "rjoin":
		return "api"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	case pkg == "main":
		return "harness"
	}
	return "stdlib"
}

// funcPackage extracts the package path from a symbol name such as
// "rjoin/internal/core.(*Proc).onTuple".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// foldProfile folds the CPU profile's flat samples by layer with the
// toolchain's pprof, returning each layer's share of sampled CPU.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-flat", "-nodecount=1000000", "-unit=ns", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+outDir)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v", err)
	}
	byLayer := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 6 || !strings.HasSuffix(fields[1], "%") {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ns"), 64)
		if err != nil {
			continue
		}
		fn := strings.Join(fields[5:], " ")
		byLayer[layerOf(funcPackage(fn))] += ns
		total += ns
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %s", path)
	}
	for k := range byLayer {
		byLayer[k] /= total
	}
	return byLayer, nil
}

// replay times fn over n calls, five times, and returns the median
// ns per call.
func replay(n int, fn func(i int)) float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(runs)
}

// replays are the per-call costs of each layer's public functions,
// timed on inputs sampled from the pass's own stream and queries.
type replays struct {
	simEvent, lookup, rewrite, rewriteAllocs, candidates, key, canon, parse float64
}

func replayLayers(p *pass) replays {
	var r replays
	// Sample the most recent stream tuples and the distinct query texts.
	var tuples []*relation.Tuple
	for _, st := range p.ref.byRel {
		n := len(st.tuples)
		tuples = append(tuples, st.tuples[max(0, n-256):]...)
	}
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].PubSeq < tuples[j].PubSeq })
	seen := map[string]bool{}
	var sqls []string
	var qs []*query.Query
	for _, s := range p.subs {
		if seen[s.sql] || len(sqls) == 64 {
			continue
		}
		seen[s.sql] = true
		sqls = append(sqls, s.sql)
		qs = append(qs, mustParse(s.sql))
	}

	// sim: schedule-and-dispatch on a fresh scheduler whose queue holds
	// as many pending events as the workload's did: chains of no-op
	// events, each rescheduling itself 1..8 ticks ahead.
	pending := max(1, int(median(p.pending)))
	r.simEvent = replay(1, func(int) {
		const n = 1 << 16
		e := sim.NewEngine(1)
		fired := 0
		var step sim.CtxFunc
		step = func(now sim.Time, c sim.Ctx) {
			if fired++; fired < n {
				e.AtCtx(now+sim.Time(fired%8+1), step, c)
			}
		}
		for i := 0; i < pending; i++ {
			e.AtCtx(sim.Time(i%8+1), step, sim.Ctx{})
		}
		e.Run()
	}) / (1 << 16)

	// chord: Node.Lookup from sampled nodes to the value keys of
	// sampled tuples.
	nodes := p.net.Engine().Ring().Nodes()
	type target struct {
		n   int
		key relation.Key
	}
	var targets []target
	for i, t := range tuples {
		for j, v := range t.Values {
			targets = append(targets, target{n: (i*7 + j) % len(nodes), key: relation.ValueKeyOf(t.Relation(), t.Schema.Attrs[j], v)})
		}
	}
	r.lookup = replay(len(targets), func(i int) {
		nodes[targets[i].n].Lookup(targets[i].key.ID())
	})
	r.key = replay(len(targets), func(i int) {
		t := tuples[(i/2)%len(tuples)]
		relation.ValueKeyOf(t.Relation(), t.Schema.Attrs[i%2], t.Values[i%2])
	})

	// query: Rewrite on sampled (query, tuple) pairs — input queries and
	// their first rewrites — and Candidates on the rewrites.
	type pair struct {
		q *query.Query
		t *relation.Tuple
	}
	var pairs []pair
	var rewritten []*query.Query
	for _, q := range qs {
		for _, t := range tuples {
			if !q.Matches(t) {
				continue
			}
			pairs = append(pairs, pair{q, t})
			if q1, ok := query.Rewrite(q, t); ok && len(rewritten) < 512 {
				rewritten = append(rewritten, q1)
				for _, t2 := range tuples {
					if q1.Matches(t2) {
						pairs = append(pairs, pair{q1, t2})
						break
					}
				}
			}
		}
	}
	if len(pairs) > 0 {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		r.rewrite = replay(len(pairs), func(i int) {
			if out, ok := query.Rewrite(pairs[i].q, pairs[i].t); ok {
				query.Release(out)
			}
		})
		runtime.ReadMemStats(&ms1)
		r.rewriteAllocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(5*len(pairs))
	}
	if len(rewritten) > 0 {
		r.candidates = replay(len(rewritten), func(i int) { rewritten[i].Candidates() })
	}

	// share and sqlparse: the workload's own query texts.
	r.canon = replay(len(qs), func(i int) { share.Canonicalize(qs[i], catalog) })
	r.parse = replay(len(sqls), func(i int) { sqlparse.Parse(sqls[i], catalog) })
	return r
}

// metrics assembles the per-layer metrics of a traced run from the
// untraced pass (nSubs subscriptions, counters c0→c1, runtime
// rt0→rt1, busyNs and wall) and the traced pass tp (wall2).
func (l *layerRun) metrics(tp *pass, nSubs int, c0, c1 counters, rt0, rt1 runtimeSample, tuples float64, busyNs int64, wall, wall2 time.Duration) ([]metric, []string) {
	var problems []string
	d0, d1 := c0.st, c1.st
	per := func(d int64) float64 { return float64(d) / tuples }
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	events := float64(c1.fired - c0.fired)
	rewrites := per(d1.RewritesCreated - d0.RewritesCreated)
	cc0, cc1 := c0.core, c1.core
	churnEvents := (d1.Joins + d1.Leaves + d1.Crashes) - (d0.Joins + d0.Leaves + d0.Crashes)
	msgs := d1.Messages - d0.Messages
	submits := int64(nSubs)
	// Subscribe calls of the timed phase (its Unsubscribes neither
	// parse nor canonicalize).
	subscribes := int64(tuples) * int64(tp.spec.submitsPerTick) / int64(perRel*len(relNames))

	cpu, err := foldProfile(l.profile)
	if err != nil {
		problems = append(problems, err.Error())
		cpu = map[string]float64{}
	}
	rp := replayLayers(tp)
	nsPerTuple := float64(busyNs) / tuples
	explained := rp.simEvent*events/tuples +
		rp.lookup*per(c1.sent-c0.sent) +
		rp.rewrite*rewrites +
		rp.candidates*per(cc1.RewritesStored-cc0.RewritesStored) +
		rp.key*(2+rewrites) +
		(rp.canon+rp.parse)*per(subscribes)

	rt := func(name string) float64 { return rt1.scalars[name] - rt0.scalars[name] }
	spans := tp.spans
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		if err := spans.write(filepath.Join(outDir, fmt.Sprintf("%s-%d.spans.jsonl", tp.spec.name, tp.seed))); err != nil {
			problems = append(problems, err.Error())
		}
	}

	return []metric{
		{"sim.events_per_tuple", events / tuples, "count"},
		{"sim.ns_per_event", rp.simEvent, "ns"},
		{"sim.cpu_frac", cpu["sim"], "frac"},
		{"chord.lookup_ns", rp.lookup, "ns"},
		{"chord.rerouted_per_tuple", per(d1.MessagesRerouted - d0.MessagesRerouted), "count"},
		{"chord.cpu_frac", cpu["chord"], "frac"},
		{"overlay.app_msgs_per_tuple", per(d1.TrafficByTag.App - d0.TrafficByTag.App), "count"},
		{"overlay.ric_msgs_per_tuple", per(d1.TrafficByTag.RIC - d0.TrafficByTag.RIC), "count"},
		{"overlay.agg_msgs_per_tuple", per(d1.TrafficByTag.Agg - d0.TrafficByTag.Agg), "count"},
		{"overlay.churn_msgs_per_tuple", per(d1.TrafficByTag.Churn - d0.TrafficByTag.Churn), "count"},
		{"overlay.repl_msgs_per_tuple", per(d1.TrafficByTag.Repl - d0.TrafficByTag.Repl), "count"},
		{"overlay.cpu_frac", cpu["overlay"], "frac"},
		{"reliable.retransmits_per_tuple", per(d1.Retransmits - d0.Retransmits), "count"},
		{"reliable.acks_per_tuple", per(d1.AckMessages - d0.AckMessages), "count"},
		{"reliable.drops_per_tuple", per(d1.Dropped - d0.Dropped), "count"},
		{"reliable.goodput_frac", frac(msgs, msgs+(d1.Retransmits-d0.Retransmits)+(d1.AckMessages-d0.AckMessages)), "frac"},
		{"reliable.abandoned", float64(d1.Abandoned - d0.Abandoned), "count"},
		{"reliable.cpu_frac", cpu["reliable"], "frac"},
		{"churn.events", float64(churnEvents), "count"},
		{"churn.handover_entries_per_event", frac(d1.HandoverEntries-d0.HandoverEntries, churnEvents), "count"},
		{"churn.lost_entries", float64((d1.RewritesLost + d1.TuplesLost + d1.QueriesLost + d1.AggStateLost) -
			(d0.RewritesLost + d0.TuplesLost + d0.QueriesLost + d0.AggStateLost)), "count"},
		{"churn.cpu_frac", cpu["churn"], "frac"},
		{"core.rewrites_per_tuple", rewrites, "count"},
		{"core.deep_rewrites_per_tuple", per(cc1.DeepRewrites - cc0.DeepRewrites), "count"},
		{"core.rewrites_stored_per_tuple", per(cc1.RewritesStored - cc0.RewritesStored), "count"},
		{"core.tuples_collected_per_tuple", per(cc1.TuplesCollected - cc0.TuplesCollected), "count"},
		{"core.answers_per_rewrite", frac(d1.Answers-d0.Answers, d1.RewritesCreated-d0.RewritesCreated), "count"},
		{"core.dupes_suppressed_per_tuple", per((cc1.DuplicatesSuppressed + cc1.AnswerDupesFiltered) - (cc0.DuplicatesSuppressed + cc0.AnswerDupesFiltered)), "count"},
		{"core.ric_requests_per_submit", frac(cc1.RICRequests-cc0.RICRequests, subscribes), "count"},
		{"core.repl_ops_per_tuple", per(d1.ReplOps - d0.ReplOps), "count"},
		{"core.cpu_frac", cpu["core"], "frac"},
		{"query.rewrite_ns", rp.rewrite, "ns"},
		{"query.rewrite_allocs", rp.rewriteAllocs, "count"},
		{"query.candidates_ns", rp.candidates, "ns"},
		{"query.cpu_frac", cpu["query"], "frac"},
		{"relation.key_ns", rp.key, "ns"},
		{"relation.cpu_frac", cpu["relation"], "frac"},
		{"share.canonicalize_ns", rp.canon, "ns"},
		{"share.attach_frac", frac(d1.QueriesShared, submits), "frac"},
		{"share.fanout_rows_per_tuple", per(d1.SharedFanoutRows - d0.SharedFanoutRows), "count"},
		{"share.containment_rewrites_per_tuple", per(d1.ContainmentRewrites - d0.ContainmentRewrites), "count"},
		{"share.cpu_frac", cpu["share"], "frac"},
		{"agg.partials_per_tuple", per(d1.AggPartials - d0.AggPartials), "count"},
		{"agg.updates_per_tuple", per(d1.AggUpdates - d0.AggUpdates), "count"},
		{"agg.cpu_frac", cpu["agg"], "frac"},
		{"sqlparse.parse_ns", rp.parse, "ns"},
		{"sqlparse.cpu_frac", cpu["sqlparse"], "frac"},
		{"runtime.cpu_frac", cpu["runtime"], "frac"},
		{"obs.cpu_frac", cpu["obs"], "frac"},
		{"gc.cpu_frac", rt("/cpu/classes/gc/total:cpu-seconds") / math.Max(rt("/cpu/classes/total:cpu-seconds"), 1e-9), "frac"},
		{"gc.cycles_per_ktuple", 1000 * rt("/gc/cycles/total:gc-cycles") / tuples, "count"},
		{"gc.pause_p99_us", 1e6 * histDeltaQuantile(rt0.hists["/sched/pauses/total/gc:seconds"], rt1.hists["/sched/pauses/total/gc:seconds"], 0.99), "us"},
		{"alloc.bytes_per_tuple", rt("/gc/heap/allocs:bytes") / tuples, "B"},
		{"sched.latency_p99_us", 1e6 * histDeltaQuantile(rt0.hists["/sched/latencies:seconds"], rt1.hists["/sched/latencies:seconds"], 0.99), "us"},
		{"bench.publish_us_p50", quantileNs(spans.durations("Publish"), 0.5) / 1e3, "us"},
		{"bench.drain_ms_p50", quantileNs(spans.durations("RunFor"), 0.5) / 1e6, "ms"},
		{"layers.residual_frac", 1 - explained/nsPerTuple, "frac"},
		{"trace.overhead_frac", wall2.Seconds()/wall.Seconds() - 1, "frac"},
	}, problems
}

// vcsRevision reports the VCS revision the binary was built from, when
// the build had one.
func vcsRevision() (rev string, modified bool) {
	rev = "none"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	return rev, modified
}

// sourceDigest hashes every Go source and module file under the
// working directory (the checkout's root), so results from checkouts
// without VCS metadata still name the code they measured.
func sourceDigest() string {
	h := sha256.New()
	var paths []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
