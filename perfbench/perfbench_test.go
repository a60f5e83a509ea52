package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// runWorkload runs one tiny workload through the command's entry point
// and decodes its report and result lines.
func runWorkload(t *testing.T, name string, trace int) (report, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", name, "--seed", "3", "--seconds", "0.05", "--size", "3",
		"--trace", strconv.Itoa(trace), "--workdir", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%d: exit %d: %s", name, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "report ") {
		t.Fatalf("%s trace=%d: want a report line then a result line, got:\n%s", name, trace, stdout.String())
	}
	var rep report
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "report ")), &rep); err != nil {
		t.Fatalf("%s trace=%d: report: %v", name, trace, err)
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s trace=%d: result: %v", name, trace, err)
	}
	return rep, res
}

func checkMetrics(t *testing.T, label string, table []spec, got map[string]metric) {
	t.Helper()
	if len(got) != len(table) {
		t.Errorf("%s: %d metrics printed, the table has %d", label, len(got), len(table))
	}
	for _, s := range table {
		m, ok := got[s.name]
		if !ok {
			t.Errorf("%s: metric %s not printed", label, s.name)
		} else if m.Unit != s.unit {
			t.Errorf("%s: metric %s unit %q, want %q", label, s.name, m.Unit, s.unit)
		}
	}
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced: every metric is printed with its unit, nothing fails, and the
// traced run reproduces the untraced run's output digest.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, res := runWorkload(t, w.name, 0)
			checkMetrics(t, w.name, endToEnd, res.Metrics)
			if !res.Correct || res.Failed != 0 || rep.FailedFrac != 0 || res.Attempted < 1 {
				t.Errorf("untraced: correct=%v failed=%d failed_frac=%g attempted=%d failures=%v",
					res.Correct, res.Failed, rep.FailedFrac, res.Attempted, rep.Failures)
			}
			if rep.Seed != 3 || rep.Why != w.why || rep.Digest == "" {
				t.Errorf("report does not record seed, reason and digest: %+v", rep)
			}

			trep, tres := runWorkload(t, w.name, 1)
			checkMetrics(t, w.name+" traced", perLayer, tres.Metrics)
			if !tres.Correct || tres.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d failures=%v", tres.Correct, tres.Failed, trep.Failures)
			}
			if trep.Digest != rep.Digest || trep.UntracedDigest != rep.Digest {
				t.Errorf("digests differ: untraced run %s, traced run %s (its untraced reference %s)",
					rep.Digest, trep.Digest, trep.UntracedDigest)
			}
		})
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the metric and
// workload tables the command prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(label string, table []spec, got []struct{ Name, Unit string }) {
		if len(got) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the table %d", label, len(got), len(table))
			return
		}
		for i, s := range table {
			if got[i].Name != s.name || got[i].Unit != s.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the table %s (%s)", label, i, got[i].Name, got[i].Unit, s.name, s.unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, the command %s", i, b.Workloads[i].Name, w.name)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9); got != 10 {
		t.Errorf("p90 = %g, want 10", got)
	}
}
