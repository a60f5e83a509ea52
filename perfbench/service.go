package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"acr"
	"acr/internal/caseio"
	"acr/internal/core"
	"acr/internal/journal"
	"acr/internal/service"
)

// The service workload submits every incident twice, with different
// engine seeds, to an in-process daemon (2 workers, 1 validation worker
// per job, a fresh state directory and evaluation store per run). Two
// clients drive it in a closed loop over one keep-alive loopback
// connection each; a client submits its next job only after the previous
// one's terminal event arrived over SSE and its result was fetched.

const serviceClients = 2

// daemon is one in-process repair daemon on a loopback listener.
type daemon struct {
	dir   string
	srv   *service.Server
	hs    *http.Server
	base  string
	serve chan error
}

func startDaemon(dir string, hook journal.AppendHook) (*daemon, error) {
	cfg := service.Config{
		StateDir:       filepath.Join(dir, "state"),
		CacheDir:       filepath.Join(dir, "cache"),
		Workers:        2,
		JobParallelism: 1,
		JournalHook:    hook,
	}
	srv, err := service.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("open daemon: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // the listen error is the one to report
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv.Start()
	d := &daemon{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), serve: make(chan error, 1)}
	go func() { d.serve <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server and the daemon down, waits for both, and
// removes the daemon's directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Shutdown(ctx); err == nil {
		err = derr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// walBytes sums the size of every job's write-ahead log.
func (d *daemon) walBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(filepath.Join(d.dir, "state"), func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !e.IsDir() && e.Name() == filepath.Base(journal.WALPath("")) {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// varz reads the daemon's counters.
func (d *daemon) varz(c *client) (map[string]int64, error) {
	resp, err := c.hc.Get(d.base + "/varz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /varz: %w", err)
	}
	return m, nil
}

// client is one closed-loop client with its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	attempt
	start                  time.Time
	submit, queueWait, run time.Duration
	rejected               bool
	job                    *service.Job
}

// cpuLedger splits the process's CPU time among the jobs in flight.
// Between two consecutive job events (a submission or a terminal event),
// each job in flight is charged an equal share of the CPU time the process
// used, so a job's CPU time stays comparable to a library repair's while
// two jobs run at once.
type cpuLedger struct {
	mu       sync.Mutex
	last     time.Duration
	inFlight map[*time.Duration]bool
}

func newCPULedger() *cpuLedger {
	return &cpuLedger{last: cpuTime(), inFlight: map[*time.Duration]bool{}}
}

// event charges the CPU time used since the previous event to the jobs in
// flight, then starts (start true) or stops charging acc.
func (l *cpuLedger) event(acc *time.Duration, start bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := cpuTime()
	if n := len(l.inFlight); n > 0 {
		share := (now - l.last) / time.Duration(n)
		for a := range l.inFlight {
			*a += share
		}
	}
	l.last = now
	if start {
		l.inFlight[acc] = true
	} else {
		delete(l.inFlight, acc)
	}
}

// repair submits one job and follows it to its terminal event. The ledger
// charges the job from the POST to the terminal event.
func (c *client) repair(req service.JobRequest, ledger *cpuLedger) (out jobOutcome) {
	t0 := time.Now()
	out.start = t0
	ledger.event(&out.cpu, true)
	charging := true
	stopCharging := func() {
		if charging {
			ledger.event(&out.cpu, false)
			charging = false
		}
	}
	defer func() {
		stopCharging()
		if out.dur == 0 {
			out.dur = time.Since(t0)
		}
	}()
	body, err := json.Marshal(req)
	if err != nil {
		out.err = err
		return out
	}
	resp, err := c.hc.Post(c.base+"/v1/repairs", "application/json", bytes.NewReader(body))
	if err != nil {
		out.err = fmt.Errorf("submit: %w", err)
		return out
	}
	var job service.Job
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	out.submit = time.Since(t0)
	if resp.StatusCode/100 != 2 {
		out.rejected = resp.StatusCode == http.StatusTooManyRequests
		out.err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		return out
	}
	if err != nil {
		out.err = fmt.Errorf("submit: decode: %w", err)
		return out
	}
	running, end, state, err := c.follow(job.ID)
	stopCharging()
	if err != nil {
		out.err = err
		return out
	}
	out.dur = end.Sub(t0)
	if !running.IsZero() {
		out.queueWait = running.Sub(t0) - out.submit
		out.run = end.Sub(running)
	}
	if state != service.StateDone {
		out.err = fmt.Errorf("job ended %s", state)
		return out
	}
	resp, err = c.hc.Get(c.base + "/v1/repairs/" + job.ID)
	if err != nil {
		out.err = fmt.Errorf("fetch result: %w", err)
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("fetch result: HTTP %d", resp.StatusCode)
		return out
	}
	out.job = &service.Job{}
	if err := json.NewDecoder(resp.Body).Decode(out.job); err != nil {
		out.err = fmt.Errorf("fetch result: decode: %w", err)
	}
	return out
}

// follow reads a job's SSE stream until the terminal state event and
// returns when the running and terminal events arrived.
func (c *client) follow(id string) (running, end time.Time, state service.JobState, err error) {
	resp, err := c.hc.Get(c.base + "/v1/repairs/" + id + "/events")
	if err != nil {
		return running, end, state, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return running, end, state, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil || ev.Type != "state" {
			continue
		}
		switch {
		case ev.State == service.StateRunning && running.IsZero():
			running = time.Now()
		case ev.State.Terminal():
			end, state = time.Now(), ev.State
			// Drain the rest so the connection returns to the pool.
			_, _ = io.Copy(io.Discard, resp.Body)
			return running, end, state, nil
		}
	}
	if err := sc.Err(); err != nil {
		return running, end, state, fmt.Errorf("events: %w", err)
	}
	return running, end, state, errors.New("events: stream ended before a terminal state")
}

// jobStrategy names the workload's search strategy in a job request.
func (w *workload) jobStrategy() string {
	if w.options().Strategy == core.BruteForce {
		return "bruteforce"
	}
	return "evolutionary"
}

// serviceInputs is the service workload's incidents as uploads, and the
// cases the daemon will see (decoded from those uploads) for checking.
func (w *workload) serviceInputs(cfg config) (uploads []caseio.Upload, cases []*acr.Case, warm caseio.Upload, err error) {
	cs, wc, err := w.inputs(cfg)
	if err != nil {
		return nil, nil, warm, err
	}
	for _, c := range cs {
		u := upload(c)
		s, err := caseio.FromUpload(u)
		if err != nil {
			return nil, nil, warm, fmt.Errorf("round-trip %s: %w", c.Name, err)
		}
		uploads = append(uploads, u)
		cases = append(cases, &acr.Case{Name: s.Name, Topo: s.Topo, Configs: s.Configs, Intents: s.Intents})
	}
	return uploads, cases, upload(wc), nil
}

func upload(c *acr.Case) caseio.Upload {
	u := caseio.Upload{
		Name:     c.Name,
		Topology: caseio.FormatTopology(c.Topo),
		Intents:  caseio.FormatIntents(c.Intents),
		Configs:  map[string]string{},
	}
	for d, cfg := range c.Configs {
		u.Configs[d] = cfg.Text()
	}
	return u
}

// drive runs jobs through the daemon from serviceClients closed-loop
// clients. Job k repairs incident k mod n in pass k / n. Clients stop
// taking jobs once minPasses passes were handed out and, when bound is
// positive, bound has elapsed.
func drive(d *daemon, uploads []caseio.Upload, strategy string, seed int64, minPasses int, bound time.Duration) []jobOutcome {
	n := len(uploads)
	ledger := newCPULedger()
	var next atomic.Int64
	var mu sync.Mutex
	var outs []jobOutcome
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(d.base)
			defer cl.close()
			for {
				k := int(next.Add(1) - 1)
				pass, inc := k/n, k%n
				if pass >= minPasses && (bound <= 0 || time.Since(start) >= bound) {
					return
				}
				u := uploads[inc]
				out := cl.repair(service.JobRequest{Case: &u, Seed: engineSeed(seed, pass, inc), Strategy: strategy}, ledger)
				out.pass, out.inc = pass, inc
				mu.Lock()
				outs = append(outs, out)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// runJob submits one job and waits for it (the warm-up).
func runJob(d *daemon, u caseio.Upload, strategy string) error {
	cl := newClient(d.base)
	defer cl.close()
	out := cl.repair(service.JobRequest{Case: &u, Seed: warmupSeed, Strategy: strategy}, newCPULedger())
	return out.err
}

// service checks one job's result against a cold verification.
func (c *checker) service(o *jobOutcome, minPasses int) {
	a := &o.attempt
	if a.err != nil {
		c.fail(a, false, "%v", a.err)
		return
	}
	r := o.job.Result
	if r == nil {
		c.fail(a, false, "job done without a result")
		return
	}
	if p := outcomeProblem(r.Termination, r.CandidatesPanicked, r.CandidatesTimedOut); p != "" {
		c.fail(a, false, "%s", p)
		return
	}
	if !r.Feasible {
		// The result carries no best-effort configurations, so only the
		// base claim can be checked; the job is not counted as improved.
		if base := c.baseFailing(a.inc); r.BaseFailing != base {
			c.fail(a, true, "base failing %d, cold check says %d", r.BaseFailing, base)
			return
		}
		if a.pass < minPasses {
			c.checked++
			c.digests = append(c.digests, keyedDigest{a.pass, a.inc, r.CanonicalSHA256})
		}
		return
	}
	configs := map[string]*acr.Config{}
	for d, text := range r.Configs {
		configs[d] = acr.ParseConfig(d, text)
	}
	if len(configs) != len(c.cases[a.inc].Configs) {
		c.fail(a, true, "result has %d device configurations, the case %d", len(configs), len(c.cases[a.inc].Configs))
		return
	}
	c.judge(a, minPasses, r.BaseFailing, true, r.Improved, configs, 0, r.CanonicalSHA256)
}

// measureService is the untraced run of the service workload.
func (w *workload) measureService(cfg config) (*report, *result, error) {
	var uploads []caseio.Upload
	var cases []*acr.Case
	var d *daemon
	var setups []time.Duration
	for k := 0; k < setupRuns; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, err
			}
		}
		cpu, err := timeSetup(func() error {
			us, cs, warm, err := w.serviceInputs(cfg)
			if err != nil {
				return err
			}
			nd, err := startDaemon(filepath.Join(cfg.workdir, fmt.Sprintf("daemon-%d", k)), nil)
			if err != nil {
				return err
			}
			if err := runJob(nd, warm, w.jobStrategy()); err != nil {
				_ = nd.stop() // the warm-up failure is the one to report
				return fmt.Errorf("warm-up job: %w", err)
			}
			uploads, cases, d = us, cs, nd
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, cpu)
	}

	settle()
	var outs []jobOutcome
	win := timeWindow(func() {
		outs = drive(d, uploads, w.jobStrategy(), cfg.seed, w.minPasses(), cfg.seconds)
	})
	if err := d.stop(); err != nil {
		return nil, nil, err
	}
	settle()

	chk := newChecker(cases)
	atts := make([]attempt, len(outs))
	for i := range outs {
		chk.service(&outs[i], w.minPasses())
		atts[i] = outs[i].attempt
	}
	rep, res := w.summarize(cfg, chk, atts, win)
	res.Metrics = emit(endToEnd, endToEndValues(chk, atts, win, setups))
	return rep, res, nil
}

// journalTally counts WAL appends and sums the engine's iteration records.
type journalTally struct {
	mu                                   sync.Mutex
	appends, iterations, generated, kept int
	preservedFromKept                    int
}

func (j *journalTally) hook(_ int, rec *journal.Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appends++
	if it := rec.Iteration; rec.Type == journal.TypeIteration && it != nil {
		j.iterations++
		j.generated += it.Generated
		j.kept += it.Kept
		j.preservedFromKept += min(it.Kept, populationCap)
	}
	return nil
}

// tracedService runs the first two passes through a plain daemon, then
// through a traced one — templates wrapped via the engine's template
// source, WAL appends counted by the journal hook — and attributes the
// traced jobs' latency.
func (w *workload) tracedService(cfg config) (*report, *result, error) {
	uploads, cases, _, err := w.serviceInputs(cfg)
	if err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(filepath.Join(cfg.workdir, "plain"), nil)
	if err != nil {
		return nil, nil, err
	}
	settle()
	var plainOuts []jobOutcome
	plainWin := timeWindow(func() {
		plainOuts = drive(d, uploads, w.jobStrategy(), cfg.seed, w.minPasses(), 0)
	})
	if err := d.stop(); err != nil {
		return nil, nil, err
	}

	tr := newTracer()
	wrapped := tr.wrap(acr.DefaultTemplates())
	core.SetTemplateSource(func() []core.Template { return wrapped })
	defer core.SetTemplateSource(acr.DefaultTemplates)
	var jt journalTally
	d, err = startDaemon(filepath.Join(cfg.workdir, "traced"), jt.hook)
	if err != nil {
		return nil, nil, err
	}
	settle()
	var outs []jobOutcome
	var gc0, cpu0, gc1, cpu1 float64
	win := timeWindow(func() {
		gc0, cpu0 = runtimeSample()
		outs = drive(d, uploads, w.jobStrategy(), cfg.seed, w.minPasses(), 0)
		gc1, cpu1 = runtimeSample()
	})
	cl := newClient(d.base)
	vz, verr := d.varz(cl)
	cl.close()
	wal, werr := d.walBytes()
	if err := errors.Join(verr, werr, d.stop()); err != nil {
		return nil, nil, err
	}
	settle()

	plain, withTrace := newChecker(cases), newChecker(cases)
	atts := make([]attempt, len(plainOuts))
	var plainSum time.Duration
	for i := range plainOuts {
		plain.service(&plainOuts[i], w.minPasses())
		atts[i] = plainOuts[i].attempt
		plainSum += plainOuts[i].dur
	}
	var ec engineCounts
	var latency, submit, queueWait, runT, overhead time.Duration
	rejected := 0
	for i := range outs {
		o := &outs[i]
		withTrace.service(o, w.minPasses())
		latency += o.dur
		submit += o.submit
		queueWait += o.queueWait
		runT += o.run
		if o.rejected {
			rejected++
		}
		tr.jobSpans(o)
		if o.job == nil || o.job.Result == nil {
			continue
		}
		r := o.job.Result
		overhead += o.dur - time.Duration(r.WallClockSeconds*float64(time.Second))
		ec.validated += r.CandidatesValidated
		ec.cacheHits += r.CacheHits
		ec.cacheMisses += r.CacheMisses
		ec.storeHits += r.StoreHits
		ec.prefixSims += r.PrefixSimulations
		ec.deltaReused += r.DeltaReused
		ec.deltaResim += r.DeltaResimulated
		ec.activations += r.SimActivations
		ec.refuted += r.StaticallyRefuted
		ec.broad += r.ImpactBroad
		ec.preserves++
	}
	ec.iterations, ec.generated, ec.kept = jt.iterations, jt.generated, jt.kept
	ec.preserves += jt.preservedFromKept

	sc := tr.replay()
	v := tr.layerValues(sc, ec, latency, len(outs), 1, overhead)
	v["journal.appends"] = float64(jt.appends)
	v["journal.wal_bytes"] = float64(wal)
	v["evalstore.hit_frac"] = frac(float64(vz["store_hits"]), float64(vz["store_hits"]+vz["store_misses"]))
	v["evalstore.bytes"] = float64(vz["store_bytes"])
	v["service.submit_share"] = frac(float64(submit), float64(latency))
	v["service.queue_wait_share"] = frac(float64(queueWait), float64(latency))
	v["service.run_share"] = frac(float64(runT), float64(latency))
	v["service.overhead_share"] = frac(float64(overhead), float64(latency))
	v["service.rejected"] = float64(rejected)
	v["runtime.gc_cpu_frac"] = frac(gc1-gc0, cpu1-cpu0)
	v["runtime.alloc_mb"] = win.allocMB
	v["trace.overhead_frac"] = frac(float64(latency-plainSum), float64(plainSum))

	rep, res := w.summarize(cfg, plain, atts, plainWin)
	rep.UntracedDigest = rep.Digest
	rep.Digest = withTrace.digest()
	rep.SpansFile, err = tr.writeSpans(cfg.spans, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
	if err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	res.Failed += withTrace.failed
	res.Attempted += len(outs)
	res.Correct = res.Correct && withTrace.contradictions == 0 && rep.Digest == rep.UntracedDigest
	res.Metrics = emit(perLayer, v)
	return rep, res, nil
}

// jobSpans records a job's root span (POST to terminal event) with its
// submit, queue-wait and run children.
func (t *tracer) jobSpans(o *jobOutcome) {
	id := t.beginRepair()
	queued := o.start.Add(o.submit)
	t.addSpan(id, "service.submit", o.start, queued)
	if o.run > 0 {
		running := queued.Add(o.queueWait)
		t.addSpan(id, "service.queue_wait", queued, running)
		t.addSpan(id, "service.run", running, running.Add(o.run))
	}
	t.endRepair(id, "job", o.start, o.start.Add(o.dur))
}
