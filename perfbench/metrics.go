package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// spec names one reported metric and its unit. The two tables below are
// the benchmark's whole vocabulary: BENCHMARK.json lists the same names
// and units, and the self-test holds the two to each other.
type spec struct{ name, unit string }

// endToEnd is printed by every untraced run. Times are CPU times (see
// cpuTime): on a shared virtual machine, wall time swings with the time
// the hypervisor steals from the vCPUs, and CPU time does not.
var endToEnd = []spec{
	{"repairs_per_cpu_s", "1/s"},
	{"repair_cpu_p50_ms", "ms"},
	{"repair_cpu_p90_ms", "ms"},
	{"repaired_frac", "frac"},
	{"improved_frac", "frac"},
	{"alloc_mb_per_repair", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// templateNames is every registered template, in registry order: the
// Table 1 library followed by the universal operators.
var templateNames = []string{
	"symbolize-prefix-list",
	"add-redistribute-static",
	"add-static-origination",
	"add-pbr-permit-rule",
	"remove-pbr-rule",
	"add-peer-to-group",
	"remove-group-membership",
	"remove-policy-attach",
	"fix-peer-asn",
	"attach-policy-like-peers",
	"copy-policy-from-role",
	"universal-delete-line",
	"universal-copy-from-role-peer",
}

// perLayer is printed by every traced run.
var perLayer = func() []spec {
	s := []spec{
		{"core.iterations", "count"},
		{"core.candidates_generated", "count"},
		{"core.candidates_validated", "count"},
		{"core.cache_hit_frac", "frac"},
		{"core.kept_per_validated", "frac"},
		{"core.candidates_per_s", "1/s"},
		{"fix.ms", "ms"},
	}
	for _, t := range templateNames {
		s = append(s, spec{"fix." + t + ".share", "frac"},
			spec{"fix." + t + ".calls", "count"},
			spec{"fix." + t + ".proposals", "count"})
	}
	return append(s,
		spec{"coverage.build.ms", "ms"},
		spec{"sbfl.rank.ms", "ms"},
		spec{"analysis.prior.ms", "ms"},
		spec{"verify.new_incremental.ms", "ms"},
		spec{"verify.new_incremental.calls", "count"},
		spec{"verify.check.ms", "ms"},
		spec{"verify.check.calls", "count"},
		spec{"bgp.prefix_sims", "count"},
		spec{"bgp.delta_reused", "count"},
		spec{"bgp.delta_resimulated", "count"},
		spec{"bgp.activations", "count"},
		spec{"analysis.refuted_frac", "frac"},
		spec{"analysis.broad_frac", "frac"},
		spec{"netcfg.parse.ms", "ms"},
		spec{"journal.appends", "count"},
		spec{"journal.wal_bytes", "bytes"},
		spec{"evalstore.hit_frac", "frac"},
		spec{"evalstore.bytes", "bytes"},
		spec{"service.submit_share", "frac"},
		spec{"service.queue_wait_share", "frac"},
		spec{"service.run_share", "frac"},
		spec{"service.overhead_share", "frac"},
		spec{"service.rejected", "count"},
		spec{"runtime.gc_cpu_frac", "frac"},
		spec{"runtime.alloc_mb", "MB"},
		spec{"trace.overhead_frac", "frac"},
		spec{"trace.unattributed_frac", "frac"},
	)
}()

// emit builds a result's metric map from values keyed by name; every name
// of the table must be present.
func emit(table []spec, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(table))
	for _, s := range table {
		v, ok := values[s.name]
		if !ok {
			panic("perfbench: metric " + s.name + " was not computed")
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the CPU time the process has used so far, user and system,
// summed over its threads. Linux accounts it from the scheduler's task
// clock, which on a virtual machine with steal-time accounting excludes
// the time the hypervisor gave the vCPU to other guests.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the linearly interpolated q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median of durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.5)
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return math.NaN()
}
