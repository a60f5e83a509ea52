package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"acr"
	"acr/internal/analysis"
	"acr/internal/bgp"
	"acr/internal/core"
	"acr/internal/coverage"
	"acr/internal/netcfg"
	"acr/internal/sbfl"
	"acr/internal/verify"
)

// The traced run observes the engine through its public seams only. A
// forwarding wrapper around every template times each Generate call and
// sees every *core.Context the engine builds (one per preserved version)
// and every Update it proposes. After the timed repairs, a sample of those
// versions and proposals is replayed through the layer entry points —
// verify.NewIncremental, coverage.Build, sbfl.Rank, analysis.AnalyzeFiles,
// netcfg.Parse and (*verify.Incremental).CheckCtx — to measure each
// stage's cost per call, which the engine's own counts then scale to the
// whole run.

const (
	// sampleVersions bounds the versions kept for replay (each holds a
	// simulated network); sampleProposals bounds the proposals kept per
	// version.
	sampleVersions  = 12
	sampleProposals = 4
	// maxSpans bounds the spans kept in memory.
	maxSpans = 200000
	// recentVersions is how many concurrently generating versions the
	// tracer tells apart (one per daemon worker suffices).
	recentVersions = 4
)

type recentVersion struct {
	ctx *core.Context
	v   *version
}

// span is one timed interval. Spans of one repair share its root's ID as
// their Parent; replay spans hang off a "replay" root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// templateStats is one template's tally over the traced repairs.
type templateStats struct {
	calls, proposals int
	busy             time.Duration
}

// version is a sampled preserved version with a sample of its proposals.
type version struct {
	ctx       *core.Context
	proposals []core.Update
	seen      int // proposals offered to the sample
}

// tracer collects spans, template tallies and the replay sample. It is
// safe for concurrent use: the daemon runs several jobs at once.
type tracer struct {
	mu       sync.Mutex
	origin   time.Time
	spans    []span
	nextID   int
	root     int // the current repair's span (library runs only)
	tmpl     map[string]*templateStats
	fix      time.Duration
	versions []*version
	// recent maps the last few contexts to their sample entry (nil when
	// not sampled). The engine generates from one version at a time, so a
	// short window identifies versions without keeping every context — and
	// its simulated network — alive.
	recent  [recentVersions]recentVersion
	ctxSeen int
	rng     *rand.Rand
	dropped int // spans beyond maxSpans
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		tmpl:   map[string]*templateStats{},
		rng:    rand.New(rand.NewSource(1)),
	}
}

// addSpan records an interval and returns its ID.
func (t *tracer) addSpan(parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addSpanLocked(parent, name, start, end)
}

func (t *tracer) addSpanLocked(parent int, name string, start, end time.Time) int {
	t.nextID++
	if len(t.spans) >= maxSpans {
		t.dropped++
		return t.nextID
	}
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Name: name,
		Start: ms(start.Sub(t.origin)), End: ms(end.Sub(t.origin))})
	return t.nextID
}

// beginRepair reserves the root span ID the next repair's fix spans hang
// off; endRepair records the root itself.
func (t *tracer) beginRepair() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.root = t.nextID
	return t.root
}

func (t *tracer) endRepair(id int, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Name: name,
			Start: ms(start.Sub(t.origin)), End: ms(end.Sub(t.origin))})
	}
	t.root = 0
}

// generated records one Generate call: its span, the template's tally and
// the replay sample (reservoir sampling over versions, then over each
// kept version's proposals).
func (t *tracer) generated(name string, ctx *core.Context, ups []core.Update, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addSpanLocked(t.root, "fix."+name, start, end)
	st := t.tmpl[name]
	if st == nil {
		st = &templateStats{}
		t.tmpl[name] = st
	}
	st.calls++
	st.proposals += len(ups)
	st.busy += end.Sub(start)
	t.fix += end.Sub(start)

	v, known := t.lookup(ctx)
	if !known {
		t.ctxSeen++
		switch {
		case len(t.versions) < sampleVersions:
			v = &version{ctx: ctx}
			t.versions = append(t.versions, v)
		default:
			if j := t.rng.Intn(t.ctxSeen); j < sampleVersions {
				v = &version{ctx: ctx}
				t.versions[j] = v
			}
		}
		copy(t.recent[1:], t.recent[:recentVersions-1])
		t.recent[0] = recentVersion{ctx: ctx, v: v}
	}
	if v == nil {
		return
	}
	for _, up := range ups {
		v.seen++
		if len(v.proposals) < sampleProposals {
			v.proposals = append(v.proposals, up)
		} else if j := t.rng.Intn(v.seen); j < sampleProposals {
			v.proposals[j] = up
		}
	}
}

// lookup finds a recently seen context's sample entry.
func (t *tracer) lookup(ctx *core.Context) (*version, bool) {
	for _, r := range t.recent {
		if r.ctx == ctx {
			return r.v, true
		}
	}
	return nil, false
}

// tracedTemplate forwards to a registry template and reports each
// Generate call. Embedding keeps the template's name, error class and
// descriptor digest, so the engine's static pruning and search digest see
// the same template set.
type tracedTemplate struct {
	core.DescribedTemplate
	tr *tracer
}

func (w *tracedTemplate) Generate(ctx *core.Context, line netcfg.LineRef) []core.Update {
	start := time.Now()
	ups := w.DescribedTemplate.Generate(ctx, line)
	w.tr.generated(w.Name(), ctx, ups, start, time.Now())
	return ups
}

// wrap returns forwarding wrappers for a registry-resolved template list
// (acr.DefaultTemplates, acr.UniversalTemplates).
func (t *tracer) wrap(ts []core.Template) []core.Template {
	out := make([]core.Template, len(ts))
	for i, inner := range ts {
		out[i] = &tracedTemplate{DescribedTemplate: inner.(core.DescribedTemplate), tr: t}
	}
	return out
}

// stageCosts is the mean cost of one call into each layer, measured by
// replaying the sample.
type stageCosts struct {
	newIncremental, coverage, rank, prior, parse, check time.Duration
	versions, checks                                    int
}

// replay times the sampled versions and proposals through the layer entry
// points, recording a span per call under one "replay" root.
func (t *tracer) replay() stageCosts {
	var sc stageCosts
	root := t.beginRepair()
	rootStart := time.Now()
	timed := func(name string, f func()) time.Duration {
		s := time.Now()
		f()
		e := time.Now()
		t.addSpan(root, name, s, e)
		return e.Sub(s)
	}
	for _, v := range t.versions {
		ctx := v.ctx
		intents := make([]verify.Intent, len(ctx.Report.Verdicts))
		for i, vd := range ctx.Report.Verdicts {
			intents[i] = vd.Intent
		}
		var iv *verify.Incremental
		sc.newIncremental += timed("replay.verify.new_incremental", func() {
			iv = verify.NewIncremental(ctx.Topo, ctx.Configs, intents, bgp.Options{})
		})
		var m *coverage.Matrix
		sc.coverage += timed("replay.coverage.build", func() {
			m = coverage.Build(iv.BaseNet(), iv.BaseProvenance(), iv.BaseReport())
		})
		sc.rank += timed("replay.sbfl.rank", func() { sbfl.Rank(m, sbfl.Tarantula) })
		sc.prior += timed("replay.analysis.prior", func() {
			analysis.AnalyzeFiles(ctx.Topo, ctx.Configs, iv.BaseFiles(), nil)
		})
		sc.parse += timed("replay.netcfg.parse", func() {
			for _, c := range ctx.Configs {
				_, _ = netcfg.Parse(c) // parse errors are part of the input
			}
		})
		sc.versions++
		for _, up := range v.proposals {
			sc.check += timed("replay.verify.check", func() {
				_, _, _ = iv.CheckCtx(context.Background(), up.Edits) // cost only
			})
			sc.checks++
		}
	}
	t.endRepair(root, "replay", rootStart, time.Now())
	if sc.versions > 0 {
		n := time.Duration(sc.versions)
		sc.newIncremental /= n
		sc.coverage /= n
		sc.rank /= n
		sc.prior /= n
		sc.parse /= n
	}
	if sc.checks > 0 {
		sc.check /= time.Duration(sc.checks)
	}
	return sc
}

// writeSpans writes the spans to dir as one JSON document.
func (t *tracer) writeSpans(dir, name string) (string, error) {
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"dropped": t.dropped, "spans": t.spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, data, 0o644)
}

// engineCounts are the engine's own counts over the traced repairs.
type engineCounts struct {
	iterations, generated, validated, kept int
	cacheHits, cacheMisses, storeHits      int
	prefixSims, deltaReused, deltaResim    int
	activations, refuted, broad            int
	preserves                              int
}

// populationCap is the engine's default Options.PopulationCap, which
// every workload keeps: at most this many kept candidates are preserved
// per iteration.
const populationCap = 8

// addResult folds one library result in. Preserves are counted from the
// logs: the base version plus, per iteration that kept survivors, up to
// populationCap of them.
func (c *engineCounts) addResult(r *acr.RepairResult) {
	c.iterations += r.Iterations
	c.validated += r.CandidatesValidated
	c.cacheHits += r.CacheHits
	c.cacheMisses += r.CacheMisses
	c.storeHits += r.StoreHits
	c.prefixSims += r.PrefixSimulations
	c.deltaReused += r.DeltaReused
	c.deltaResim += r.DeltaResimulated
	c.activations += r.SimActivations
	c.refuted += r.StaticallyRefuted
	c.broad += r.ImpactBroad
	c.preserves++
	for _, l := range r.Logs {
		c.generated += l.Generated
		c.kept += l.Kept
		c.preserves += min(l.Kept, populationCap)
	}
}

// layerValues turns the tracer's tallies, the replay costs and the engine
// counts into the per-layer metrics. root is the summed wall time of the
// repairs being attributed and repairs their number; workers is the
// validation parallelism of one repair. extra is time already attributed
// outside the engine (the daemon's own overhead).
func (t *tracer) layerValues(sc stageCosts, ec engineCounts, root time.Duration, repairs, workers int, extra time.Duration) map[string]float64 {
	v := map[string]float64{}
	n := float64(repairs)
	evals := ec.cacheMisses - ec.storeHits
	preserve := time.Duration(ec.preserves) * sc.newIncremental
	localize := time.Duration(ec.preserves) * (sc.coverage + sc.rank + sc.prior)
	validate := time.Duration(evals) * sc.check / time.Duration(workers)

	v["core.iterations"] = float64(ec.iterations)
	v["core.candidates_generated"] = float64(ec.generated)
	v["core.candidates_validated"] = float64(ec.validated)
	v["core.cache_hit_frac"] = frac(float64(ec.cacheHits), float64(ec.cacheHits+ec.cacheMisses))
	v["core.kept_per_validated"] = frac(float64(ec.kept), float64(ec.validated))
	v["core.candidates_per_s"] = frac(float64(ec.validated), root.Seconds())
	v["fix.ms"] = ms(t.fix) / n
	for _, name := range templateNames {
		st := t.tmpl[name]
		if st == nil {
			st = &templateStats{}
		}
		v["fix."+name+".share"] = frac(float64(st.busy), float64(root))
		v["fix."+name+".calls"] = float64(st.calls)
		v["fix."+name+".proposals"] = float64(st.proposals)
	}
	v["coverage.build.ms"] = ms(time.Duration(ec.preserves)*sc.coverage) / n
	v["sbfl.rank.ms"] = ms(time.Duration(ec.preserves)*sc.rank) / n
	v["analysis.prior.ms"] = ms(time.Duration(ec.preserves)*sc.prior) / n
	v["verify.new_incremental.ms"] = ms(preserve) / n
	v["verify.new_incremental.calls"] = float64(ec.preserves)
	v["verify.check.ms"] = ms(time.Duration(evals)*sc.check) / n
	v["verify.check.calls"] = float64(evals)
	v["bgp.prefix_sims"] = float64(ec.prefixSims)
	v["bgp.delta_reused"] = float64(ec.deltaReused)
	v["bgp.delta_resimulated"] = float64(ec.deltaResim)
	v["bgp.activations"] = float64(ec.activations)
	v["analysis.refuted_frac"] = frac(float64(ec.refuted), float64(ec.validated))
	v["analysis.broad_frac"] = frac(float64(ec.broad), float64(ec.validated))
	v["netcfg.parse.ms"] = ms(time.Duration(ec.preserves)*sc.parse) / n
	attributed := t.fix + preserve + localize + validate + extra
	v["trace.unattributed_frac"] = frac(float64(root-attributed), float64(root))
	for _, s := range perLayer {
		if _, ok := v[s.name]; !ok {
			v[s.name] = 0 // a layer this workload does not reach
		}
	}
	return v
}

// runtimeSample reads the cumulative GC and total CPU time.
func runtimeSample() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}

// traced is the traced run of a workload: every incident of the first
// pass is repaired once untraced and once traced, alternating which goes
// first; the two digests must agree.
func (w *workload) traced(cfg config) (*report, *result, error) {
	if w.service {
		return w.tracedService(cfg)
	}
	cases, _, err := w.inputs(cfg)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	base := w.options()
	if base.Templates == nil {
		base.Templates = acr.DefaultTemplates()
	}
	wrapped := tr.wrap(base.Templates)

	plain := newChecker(cases)
	withTrace := newChecker(cases)
	var untraced window // summed over the untraced repairs
	var tracedSum time.Duration
	var ec engineCounts
	var atts []attempt
	runtime.GC()
	gc0, cpu0 := runtimeSample()
	var before, after runtime.MemStats
	var tracedAlloc uint64
	for i, c := range cases {
		opts := w.options()
		opts.Seed = engineSeed(cfg.seed, 0, i)
		untracedRun := func() {
			t0, c0 := time.Now(), cpuTime()
			res, err := repairOnce(c, opts)
			a := attempt{pass: 0, inc: i, dur: time.Since(t0), cpu: cpuTime() - c0, res: res, err: err}
			untraced.wall += a.dur
			untraced.cpu += a.cpu
			atts = append(atts, a)
		}
		tracedRun := func() {
			topts := opts
			topts.Templates = wrapped
			runtime.ReadMemStats(&before)
			id := tr.beginRepair()
			t0 := time.Now()
			res, err := repairOnce(c, topts)
			t1 := time.Now()
			tr.endRepair(id, "repair", t0, t1)
			runtime.ReadMemStats(&after)
			tracedAlloc += after.TotalAlloc - before.TotalAlloc
			tracedSum += t1.Sub(t0)
			a := attempt{pass: 0, inc: i, dur: t1.Sub(t0), res: res, err: err}
			withTrace.library(&a, 1)
			if err == nil {
				ec.addResult(res)
			}
		}
		if i%2 == 0 {
			untracedRun()
			tracedRun()
		} else {
			tracedRun()
			untracedRun()
		}
	}
	gc1, cpu1 := runtimeSample()
	for i := range atts {
		plain.library(&atts[i], 1)
	}
	sc := tr.replay()

	v := tr.layerValues(sc, ec, tracedSum, len(cases), w.parallelism(), 0)
	v["runtime.gc_cpu_frac"] = frac(gc1-gc0, cpu1-cpu0)
	v["runtime.alloc_mb"] = float64(tracedAlloc) / 1e6
	v["trace.overhead_frac"] = frac(float64(tracedSum-untraced.wall), float64(untraced.wall))

	rep, res := w.summarize(cfg, plain, atts, untraced)
	rep.UntracedDigest = rep.Digest
	rep.Digest = withTrace.digest()
	rep.SpansFile, err = tr.writeSpans(cfg.spans, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
	if err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	res.Failed += withTrace.failed
	res.Attempted += len(cases)
	res.Correct = res.Correct && withTrace.contradictions == 0 && rep.Digest == rep.UntracedDigest
	res.Metrics = emit(perLayer, v)
	return rep, res, nil
}
