package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"acr"
	"acr/internal/core"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// size is the number of incidents per pass.
	size int
	// corpus is the incident substrate; Size and Seed are set per run.
	corpus acr.CorpusOptions
	// options are the engine options; Seed is set per repair.
	options func() acr.RepairOptions
	// service runs the incidents through the in-process daemon instead of
	// calling acr.Repair.
	service bool
}

var workloads = []*workload{
	{
		name: "corpus",
		why:  "Table 1 incidents on the default WAN and fat-tree, brute-force search at -p 1: fix and preserve dominate, validation is light",
		size: 400,
		options: func() acr.RepairOptions {
			return acr.RepairOptions{Parallelism: 1, Strategy: core.BruteForce}
		},
	},
	{
		name:   "scale",
		why:    "k=8 fat-tree and 16/10/8 WAN at -p 1, brute-force search: provenance, simulation and preserve costs at network size",
		size:   40,
		corpus: acr.CorpusOptions{FatTreeK: 8, WANRouters: 16, WANPoPs: 10, WANDCNs: 8},
		options: func() acr.RepairOptions {
			return acr.RepairOptions{Parallelism: 1, Strategy: core.BruteForce}
		},
	},
	{
		name: "universal",
		why:  "history-free universal operators, 5-iteration cap, -p 2: cold validation, fitness cache and parallel dispatch dominate",
		size: 28,
		options: func() acr.RepairOptions {
			return acr.RepairOptions{Parallelism: 2, MaxIterations: 5, Templates: acr.UniversalTemplates()}
		},
	},
	{
		name:   "service",
		why:    "incidents on a k=8 fat-tree and 16/10/8 WAN submitted twice to the in-process daemon by 2 closed-loop clients: journal, store and service",
		size:   32,
		corpus: acr.CorpusOptions{FatTreeK: 8, WANRouters: 16, WANPoPs: 10, WANDCNs: 8},
		options: func() acr.RepairOptions {
			return acr.RepairOptions{Strategy: core.BruteForce}
		},
		service: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// minPasses is how many passes over the incidents every run completes
// before the time bound may end it: the service repairs each incident
// twice, so the second pass reads what the first wrote to the store.
func (w *workload) minPasses() int {
	if w.service {
		return 2
	}
	return 1
}

// parallelism is the number of validation workers one repair uses.
func (w *workload) parallelism() int {
	if p := w.options().Parallelism; p > 0 {
		return p
	}
	return 1
}

// engineSeed derives the engine seed of incident i in pass p from the
// workload seed. Each repair gets its own stream: one engine seed shared
// by every incident would steer all of them down the same sampled search
// path and make a run's cost hinge on that one seed.
func engineSeed(seed int64, pass, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(pass)*0xD1B54A32D192ED03 + uint64(i+1)*0xBF58476D1CE4E5B9
	z ^= z >> 31
	z *= 0x94D049BB133111EB
	z ^= z >> 29
	return int64(z >> 1)
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 7

// warmupSeed fixes the warm-up incident and its engine seed, so set-up
// does the same work whatever the workload seed.
const warmupSeed = 7

// inputs generates the run's incidents from the workload seed, plus the
// seed-independent warm-up incident.
func (w *workload) inputs(cfg config) (cases []*acr.Case, warm *acr.Case, err error) {
	copts := w.corpus
	copts.Size, copts.Seed = w.size, cfg.seed
	if cfg.size > 0 {
		copts.Size = cfg.size
	}
	incs, err := acr.GenerateCorpus(copts)
	if err != nil {
		return nil, nil, fmt.Errorf("generate %s corpus: %w", w.name, err)
	}
	for _, inc := range incs {
		cases = append(cases, acr.IncidentCase(inc))
	}
	copts.Size, copts.Seed = 1, warmupSeed
	incs, err = acr.GenerateCorpus(copts)
	if err != nil {
		return nil, nil, fmt.Errorf("generate %s warm-up incident: %w", w.name, err)
	}
	return cases, acr.IncidentCase(incs[0]), nil
}

// attempt is one timed repair.
type attempt struct {
	pass, inc int
	dur       time.Duration // wall time
	cpu       time.Duration // the process's CPU time over the repair
	res       *acr.RepairResult
	err       error // a panic, or a service-level failure
}

// repairOnce runs one library repair, turning a panic into an error.
func repairOnce(c *acr.Case, opts acr.RepairOptions) (res *acr.RepairResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return acr.Repair(c, opts), nil
}

// window is what one timed window measured.
type window struct {
	wall, cpu time.Duration
	allocMB   float64 // runtime.MemStats.TotalAlloc growth
}

// timeWindow runs f as the timed window, after a garbage collection so
// that set-up's garbage is not collected on the window's time.
func timeWindow(f func()) window {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start, cpu0 := time.Now(), cpuTime()
	f()
	w := window{wall: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&after)
	w.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	return w
}

// settle collects garbage and flushes the file systems' pending writes.
// Every job fsyncs its journal and the store, and removing a daemon's
// directory leaves deletes for the disk to process; without the flush, that
// backlog slows the next window, and back-to-back runs get steadily slower.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// timeSetup runs one set-up and returns the CPU time it took.
func timeSetup(f func() error) (time.Duration, error) {
	settle()
	cpu0 := cpuTime()
	err := f()
	return cpuTime() - cpu0, err
}

// measure is the untraced run of a library workload.
func (w *workload) measure(cfg config) (*report, *result, error) {
	if w.service {
		return w.measureService(cfg)
	}
	var cases []*acr.Case
	var setups []time.Duration
	for k := 0; k < setupRuns; k++ {
		d, err := timeSetup(func() error {
			cs, warm, err := w.inputs(cfg)
			if err != nil {
				return err
			}
			opts := w.options()
			opts.Seed = warmupSeed
			if _, err := repairOnce(warm, opts); err != nil {
				return fmt.Errorf("warm-up repair: %w", err)
			}
			cases = cs
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d)
	}

	var atts []attempt
	win := timeWindow(func() {
		start := time.Now()
		for pass := 0; ; pass++ {
			for i, c := range cases {
				if pass >= w.minPasses() && time.Since(start) >= cfg.seconds {
					return
				}
				opts := w.options()
				opts.Seed = engineSeed(cfg.seed, pass, i)
				t0, c0 := time.Now(), cpuTime()
				res, err := repairOnce(c, opts)
				atts = append(atts, attempt{pass: pass, inc: i, dur: time.Since(t0), cpu: cpuTime() - c0, res: res, err: err})
			}
		}
	})

	chk := newChecker(cases)
	for i := range atts {
		chk.library(&atts[i], w.minPasses())
	}
	rep, res := w.summarize(cfg, chk, atts, win)
	res.Metrics = emit(endToEnd, endToEndValues(chk, atts, win, setups))
	return rep, res, nil
}

// endToEndValues computes the end-to-end metrics of a checked window.
func endToEndValues(chk *checker, atts []attempt, win window, setups []time.Duration) map[string]float64 {
	n := float64(len(atts))
	return map[string]float64{
		"repairs_per_cpu_s":   n / win.cpu.Seconds(),
		"repair_cpu_p50_ms":   quantileOf(atts, 0.5, func(a attempt) time.Duration { return a.cpu }),
		"repair_cpu_p90_ms":   quantileOf(atts, 0.9, func(a attempt) time.Duration { return a.cpu }),
		"repaired_frac":       frac(float64(chk.repaired), float64(chk.checked)),
		"improved_frac":       frac(float64(chk.improved), float64(chk.checked)),
		"alloc_mb_per_repair": win.allocMB / n,
		"peak_rss_mb":         peakRSSMB(),
		"setup_s":             medianSeconds(setups),
	}
}

// summarize fills the report and the result's counts from checked attempts.
func (w *workload) summarize(cfg config, chk *checker, atts []attempt, win window) (*report, *result) {
	passes := 0
	for _, a := range atts {
		if a.pass+1 > passes {
			passes = a.pass + 1
		}
	}
	wall := func(a attempt) time.Duration { return a.dur }
	rep := &report{
		Workload:        w.name,
		Why:             w.why,
		Seed:            cfg.seed,
		Trace:           cfg.trace,
		Incidents:       len(chk.cases),
		Passes:          passes,
		Repairs:         len(atts),
		WindowS:         win.wall.Seconds(),
		WindowCPUS:      win.cpu.Seconds(),
		WallRepairsPerS: float64(len(atts)) / win.wall.Seconds(),
		WallP50Ms:       quantileOf(atts, 0.5, wall),
		WallP90Ms:       quantileOf(atts, 0.9, wall),
		Digest:          chk.digest(),
		Repaired:        chk.repaired,
		Improved:        chk.improved,
		Checked:         chk.checked,
		FailedFrac:      frac(float64(chk.failed), float64(len(atts))),
		P90Samples:      len(atts),
		Failures:        chk.failures,
	}
	return rep, &result{Correct: chk.contradictions == 0, Attempted: len(atts), Failed: chk.failed}
}

// quantileOf is the q-quantile, in milliseconds, of one duration of each
// attempt.
func quantileOf(atts []attempt, q float64, of func(attempt) time.Duration) float64 {
	xs := make([]float64, len(atts))
	for i, a := range atts {
		xs[i] = ms(of(a))
	}
	return quantile(xs, q)
}

// canonicalDigest is the SHA-256 of a result's Canonical() rendering.
func canonicalDigest(res *acr.RepairResult) string {
	sum := sha256.Sum256([]byte(res.Canonical()))
	return hex.EncodeToString(sum[:])
}
