// Command perfbench is the repository's steady-state benchmark: it
// drives one named workload through the public rjoin API, measures the
// end-to-end metrics of an untraced timed phase, checks every delivered
// answer against a windowed reference, and — with --trace 1 — repeats
// the workload under instrumentation to split its cost by layer. See
// README.md for the workloads, metrics and layer table.
//
//	perfbench --workload join-steady --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result; the lines
// before it name every metric with its unit, followed by the machine
// and input record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"rjoin"
	"rjoin/internal/core"
	"rjoin/internal/obs"
)

// heldOutSeed replaces --seed under --held-out: inputs no change was
// tuned against, for re-checking a claimed gain (README.md).
const heldOutSeed = 2718281829

// setupRepeats is how many times a run builds its network; setup_s is
// the median and the last network is the one measured.
const setupRepeats = 2

// probeSubmits is how many Subscribe calls time the submit path on
// workloads that submit nothing while timed: 4096 samples leave 40
// beyond the 99th percentile.
const probeSubmits = 4096

// Steady-state self-check bounds: the two halves of the timed phase
// may differ by at most these shares in mean state_entries and in
// median tick wall time. State is counted, so its bound is tight. Wall
// time on a shared 2-vCPU machine wanders by up to 0.28 between the
// halves of a steady run, so its bound only catches gross growth, such
// as the 3.5× of windows that never expire.
const (
	stateDriftBound = 0.10
	tickDriftBound  = 0.50
)

// metric is one named, measured value.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is everything a run reports.
type result struct {
	correct          bool
	attempted        int64
	failed           int64
	endToEnd, layers []metric
	record           map[string]any
	problems         []string
}

func main() {
	workload := flag.String("workload", "", "workload name: join-steady, join-lossy-churn or subscribe-churn")
	seed := flag.Int64("seed", 1, "workload seed: fixes the generated stream, the query mix and the network")
	seconds := flag.Int("seconds", 10, "timed-phase length, as seconds at the workload's nominal tick rate")
	trace := flag.Int("trace", 0, "1 adds the instrumented pass and reports the per-layer metrics")
	heldOut := flag.Bool("held-out", false, "use the held-out seed instead of --seed")
	flag.Parse()
	sp, err := specByName(*workload)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *heldOut {
		*seed = heldOutSeed
	}
	res, err := run(sp, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	shown := res.endToEnd
	if *trace == 1 {
		shown = res.layers
	}
	out := map[string]any{}
	for _, m := range shown {
		fmt.Printf("%-40s %14.6g %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	rec, _ := json.Marshal(res.record)
	fmt.Printf("record %s\n", rec)
	final, _ := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	fmt.Println(string(final))
	if !res.correct {
		os.Exit(1)
	}
}

// counters is a snapshot of everything the timed phase is measured by.
type counters struct {
	st      rjoin.Stats
	core    core.Counters
	sent    int64 // keyed sends, each resolved by one Chord lookup
	fired   uint64
	mallocs uint64
}

func snapshot(p *pass) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	eng := p.net.Engine()
	st := p.net.Stats() // syncs the engine first
	return counters{st: st, core: eng.Counters, sent: eng.Net().MessagesSent, fired: eng.Sim().Fired(), mallocs: ms.Mallocs}
}

// run executes one benchmark run: set-up (repeated), the untraced
// timed phase, the correctness gate and self-check, and a second pass
// with virtual-time metrics on — instrumented further when traced.
func run(sp *spec, seed int64, seconds int, traced bool) (*result, error) {
	ticks := int(math.Round(float64(seconds) * sp.ticksPerSec))
	res := &result{correct: true}
	fail := func(format string, args ...any) {
		res.correct = false
		res.problems = append(res.problems, fmt.Sprintf(format, args...))
	}

	var setupS []float64
	var p *pass
	for i := 0; i < setupRepeats; i++ {
		p = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if p, err = setup(sp, seed, observe{}); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	rt0 := readRuntime()
	c0 := snapshot(p)
	t0 := time.Now()
	if err := p.timedPhase(ticks); err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	c1 := snapshot(p)
	rt1 := readRuntime()
	heap := heapLiveMB()
	res.attempted, res.failed = p.attempt, p.failed
	if p.failed > 0 {
		fail("%d library calls failed", p.failed)
	}

	tuples := float64(ticks * perRel * len(relNames))
	busyNs := p.drainNs + p.sweepNs
	for _, d := range p.tickNs {
		busyNs += d
	}
	per := func(d int64) float64 { return float64(d) / tuples }

	g := p.check()
	for _, pr := range g.problems {
		fail("gate: %s", pr)
	}
	if sp.sound && g.extra > 0 {
		fail("gate: %d delivered rows beyond the anchor upper bound on a static, reliable ring", g.extra)
	}
	stateDrift, tickDrift := steadyDrift(p)
	if stateDrift > stateDriftBound {
		fail("self-check: state_entries differs by %.3f between the halves of the timed phase (bound %.2f)", stateDrift, stateDriftBound)
	}
	if tickDrift > tickDriftBound {
		fail("self-check: median tick time differs by %.3f between the halves of the timed phase (bound %.2f)", tickDrift, tickDriftBound)
	}
	digest := p.bagDigest()

	submits := len(p.subs)
	submitNs := p.submitNs
	if len(submitNs) == 0 {
		var err error
		// The join workloads submit nothing while timed: probe the
		// drained network instead, after the gate has read its answers.
		if submitNs, err = p.probeSubmits(probeSubmits); err != nil {
			return nil, err
		}
	}
	var stateMean float64
	for _, s := range p.states {
		stateMean += float64(s)
	}
	stateMean /= float64(max(1, len(p.states)))

	// The second pass: same inputs, Metrics on for the virtual-time
	// answer latency; traced runs add the CPU profile and spans. Only
	// the untraced pass's samples are kept: its network, reference and
	// answers would otherwise stay live beside the second pass's.
	untraced := p
	untraced.net, untraced.ref, untraced.subs, untraced.live = nil, nil, nil, nil
	p = nil
	runtime.GC()
	q, err := setup(sp, seed, observe{metrics: true, spans: traced})
	if err != nil {
		return nil, err
	}
	var lay *layerRun
	if traced {
		lay = startLayers(q)
	}
	t1 := time.Now()
	if err := q.timedPhase(ticks); err != nil {
		return nil, err
	}
	wall2 := time.Since(t1)
	if lay != nil {
		lay.stopProfile()
	}
	if q.bagDigest() != digest {
		fail("determinism: the instrumented pass delivered a different answer bag")
	}
	lat := q.net.LatencyStats()

	st0, st1 := c0.st, c1.st
	res.endToEnd = []metric{
		{"setup_s", median(setupS), "s"},
		{"tuples_per_s", tuples / (float64(busyNs) / 1e9), "1/s"},
		{"tick_ms_p50", quantileNs(untraced.tickNs, 0.50) / 1e6, "ms"},
		{"tick_ms_p99", quantileNs(untraced.tickNs, 0.99) / 1e6, "ms"},
		{"submit_us_p50", quantileNs(submitNs, 0.50) / 1e3, "us"},
		{"allocs_per_tuple", float64(c1.mallocs-c0.mallocs) / tuples, "count"},
		{"heap_live_mb", heap, "MB"},
		{"msgs_per_tuple", per(st1.Messages - st0.Messages), "count"},
		{"qpl_per_tuple", per(st1.QueryProcessingLoad - st0.QueryProcessingLoad), "count"},
		{"state_entries", stateMean, "count"},
		{"answer_ticks_p50", histQuantile(lat, 0.50), "ticks"},
		{"answer_ticks_p99", histQuantile(lat, 0.99), "ticks"},
		{"answer_exact_frac", 1 - g.errorFrac(), "frac"},
	}

	rev, dirty := vcsRevision()
	res.record = map[string]any{
		"workload": sp.name, "seed": seed, "seconds": seconds, "ticks": ticks,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "vcs_revision": rev, "vcs_modified": dirty,
		"source_digest":      sourceDigest(),
		"events_per_tuple":   float64(c1.fired-c0.fired) / tuples,
		"rewrites_per_tuple": per(st1.RewritesCreated - st0.RewritesCreated),
		"msgs_per_tuple":     per(st1.Messages - st0.Messages),
		"ric_msgs_per_tuple": per(st1.RICMessages - st0.RICMessages),
		"answer_error_frac":  g.errorFrac(),
		"ref_rows":           g.refRows, "delivered_rows": g.delivered,
		"missing_rows": g.missing, "extra_rows": g.extra, "unchecked_agg_subs": g.unchecked,
		"tick_samples": len(untraced.tickNs), "submit_samples": len(submitNs),
		"submit_us_p99": quantileNs(submitNs, 0.99) / 1e3,
		"state_drift":   stateDrift, "tick_drift": tickDrift, "state_samples": untraced.states,
		"answer_latency_samples": lat.Count,
		"untraced_wall_s":        wall.Seconds(), "second_pass_wall_s": wall2.Seconds(),
	}
	if traced {
		var problems []string
		res.layers, problems = lay.metrics(q, submits, c0, c1, rt0, rt1, tuples, busyNs, wall, wall2)
		for _, pr := range problems {
			fail("layers: %s", pr)
		}
	}
	return res, nil
}

// steadyDrift compares the two halves of the timed phase: mean
// state_entries and median tick wall time, each as the relative
// difference of the second half from the first.
func steadyDrift(p *pass) (state, tick float64) {
	h := len(p.states) / 2
	if h > 0 {
		var a, b float64
		for _, s := range p.states[:h] {
			a += float64(s)
		}
		for _, s := range p.states[h : 2*h] {
			b += float64(s)
		}
		state = math.Abs(b-a) / math.Max(a, 1)
	}
	if n := len(p.tickNs) / 2; n > 0 {
		a := quantileNs(p.tickNs[:n], 0.5)
		b := quantileNs(p.tickNs[n:], 0.5)
		tick = math.Abs(b-a) / math.Max(a, 1)
	}
	return state, tick
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantileNs is the linearly interpolated q-quantile of the samples.
func quantileNs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	f := pos - float64(i)
	return float64(s[i])*(1-f) + float64(s[i+1])*f
}

// histQuantile interpolates the q-quantile inside the library's
// exponential latency histogram: linear within the bucket that holds
// it, so the value reflects the whole distribution rather than a
// bucket bound.
func histQuantile(s rjoin.LatencySummary, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := q * float64(s.Count)
	var cum float64
	lo := float64(0)
	for i, n := range s.Buckets {
		hi := float64(obs.BucketBound(i))
		if n > 0 && cum+float64(n) >= target {
			return lo + (hi-lo)*(target-cum)/float64(n)
		}
		cum += float64(n)
		lo = hi
	}
	return float64(s.Max)
}
