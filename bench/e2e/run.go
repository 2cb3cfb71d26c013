package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// sample is one operation as its client saw it.
type sample struct {
	Kind  opKind
	Class string // ask class; "" for session ops
	Start time.Time
	End   time.Time
	// Fail is "" for a correct operation, else the reason: transport
	// error, status code, missing marker, wrong success flag or golden
	// mismatch.
	Fail string
	// Rejected marks a 429 or 503 answer (load shed, not a wrong answer).
	Rejected bool
}

func (s *sample) ms() float64 { return float64(s.End.Sub(s.Start)) / float64(time.Millisecond) }

// client is the closed-loop operator: a single keep-alive connection and
// the session ids of its slots.
type client struct {
	base  string
	http  *http.Client
	slots map[int]string
	gold  *goldens
}

func newClient(base string, gold *goldens) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{
		base: base, gold: gold, slots: map[int]string{},
		// No reply takes minutes; a hung server must not hang the run.
		http: &http.Client{Transport: tr, Timeout: 90 * time.Second},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// send performs one request and returns the status and the whole body, so
// the connection is reusable for the next op.
func (c *client) send(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// do runs one op and checks its answer.
func (c *client) do(o op) sample {
	s := sample{Kind: o.Kind}
	fail := func(format string, args ...any) sample {
		s.End = time.Now()
		s.Fail = fmt.Sprintf(format, args...)
		return s
	}
	switch o.Kind {
	case opCreate:
		s.Start = time.Now()
		status, data, err := c.send(http.MethodPost, "/sessions", []byte("{}"))
		s.End = time.Now()
		if err != nil {
			return fail("create: %v", err)
		}
		var out struct {
			SessionID string `json:"session_id"`
		}
		if status != http.StatusCreated || json.Unmarshal(data, &out) != nil || out.SessionID == "" {
			return fail("create: status %d", status)
		}
		c.slots[o.Slot] = out.SessionID
	case opDelete:
		id := c.slots[o.Slot]
		delete(c.slots, o.Slot)
		s.Start = time.Now()
		status, _, err := c.send(http.MethodDelete, "/sessions/"+id, nil)
		s.End = time.Now()
		if err != nil {
			return fail("delete: %v", err)
		}
		if status != http.StatusNoContent {
			return fail("delete: status %d", status)
		}
	case opAsk:
		s.Class = o.Ask.Class
		id, ok := c.slots[o.Slot]
		if !ok {
			s.Start = time.Now()
			return fail("ask: no session in slot %d", o.Slot)
		}
		body, err := json.Marshal(map[string]string{"query": o.Ask.Query, "session_id": id})
		if err != nil {
			s.Start = time.Now()
			return fail("ask: %v", err)
		}
		s.Start = time.Now()
		status, data, err := c.send(http.MethodPost, "/ask", body)
		s.End = time.Now()
		if err != nil {
			return fail("ask: %v", err)
		}
		if status != http.StatusOK {
			s.Rejected = status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
			s.Fail = fmt.Sprintf("ask: status %d", status)
			return s
		}
		var out struct {
			Reply   string `json:"reply"`
			Success bool   `json:"success"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			s.Fail = "ask: reply is not JSON"
			return s
		}
		if why := c.gold.checkReply(o.Ask, out.Reply, out.Success); why != "" {
			s.Fail = o.Ask.Class + ": " + why
		}
	}
	return s
}

// replay sends the ops one after the other and returns every sample, the
// wall time from the first send to the last answer less the time spent in
// the host meter, and what the meter read. The meter is sampled between
// operations, never inside one.
func replay(ops []op, c *client) ([]sample, time.Duration, hostLoad) {
	out := make([]sample, 0, len(ops))
	m := newHostMeter()
	start := time.Now()
	for _, o := range ops {
		m.tick()
		out = append(out, c.do(o))
	}
	wall := time.Since(start)
	return out, wall - m.spent, m.hostLoad
}

// env is what every run of this process shares.
type env struct {
	root      string // checkout root
	serverBin string
	probeBin  string // built for traced runs only
	gold      *goldens
	spec      *benchSpec
}

// runOpts selects one run.
type runOpts struct {
	seed    int64
	seconds int
	trace   bool
}

const (
	coldStarts = 3 // setup_s is the median of this many cold starts
	minRounds  = 3 // measured rounds in every run, however slow the host
	// rssRound is the measured round after which VmHWM is read: a fixed
	// amount of work, so a faster server that fits more rounds into the
	// time does not read as a memory regression.
	rssRound = 3
)

// roundResult is one measured round.
type roundResult struct {
	wall    time.Duration // less the client's meter time
	cpuMS   float64       // the server's
	host    hostLoad
	samples []sample
}

func (r *roundResult) asks() (attempted, correct int, lat []float64) {
	for i := range r.samples {
		s := &r.samples[i]
		if s.Kind != opAsk {
			continue
		}
		attempted++
		if s.Fail == "" {
			correct++
		}
		lat = append(lat, s.ms())
	}
	return
}

// runResult is everything one run reports.
type runResult struct {
	Workload    string
	ScriptSHA   string
	Seed        int64
	Attempted   int // asks sent in the measured rounds; each is one latency sample
	Failed      int // asks answered wrongly, plus session creates and deletes that failed
	FailReasons map[string]int
	Metrics     map[string]float64 // end-to-end, or per-layer when traced
	Classes     []classStat
	PerRound    []roundStat
}

// roundStat is one measured round's own numbers as the clocks read them,
// with the host factors they are divided by (Host for wall-clock times,
// HostCPU for CPU time), printed so that a reader can tell a slow minute on
// the host from a slow program.
type roundStat struct {
	WallS, Host, HostCPU, AsksPerS, CPUMSPerAsk, P50, P90 float64
}

// classStat is one ask class's share and median latency in a run.
type classStat struct {
	Class string
	Share float64
	P50   float64
}

// liveRun is a started server with its warmed client.
type liveRun struct {
	srv *server
	c   *client
}

func (l *liveRun) stop() {
	l.c.close()
	l.srv.stop()
}

// coldStart spawns a server and replays the workload's warm-up on it:
// sessions created and the first, cold ask on every case the workload
// touches. Its duration at the reference speed, in seconds, is one setup_s
// sample; the host meter runs before and after it as well as between the
// warm-up's operations.
func (e *env) coldStart(ctx context.Context, w *workload) (*liveRun, float64, error) {
	edge := newHostMeter()
	edge.sample()
	t0 := time.Now()
	srv, err := startServer(ctx, e.serverBin, w.ServerArgs)
	if err != nil {
		return nil, 0, err
	}
	live := &liveRun{srv: srv, c: newClient(srv.base, e.gold)}
	samples, _, load := replay(w.Warmup(), live.c)
	d := time.Since(t0) - load.spent
	edge.sample()
	load.add(edge.hostLoad)
	for i := range samples {
		if samples[i].Fail != "" {
			live.stop()
			return nil, 0, fmt.Errorf("%s: warm-up failed: %s", w.Name, samples[i].Fail)
		}
	}
	return live, d.Seconds() / load.factor(), nil
}

// measureRound replays one round and meters the server's CPU around it.
func (e *env) measureRound(w *workload, live *liveRun, ops []op) (*roundResult, error) {
	cpu0, err := procCPUMillis(live.srv.pid())
	if err != nil {
		return nil, fmt.Errorf("%s: read server cpu: %w", w.Name, err)
	}
	samples, wall, load := replay(ops, live.c)
	cpu1, err := procCPUMillis(live.srv.pid())
	if err != nil {
		return nil, fmt.Errorf("%s: read server cpu: %w", w.Name, err)
	}
	return &roundResult{wall: wall, cpuMS: cpu1 - cpu0, host: load, samples: samples}, nil
}

// run measures one workload: cold starts for setup_s, one unmeasured warm
// round, then whole rounds until the time is used (at least minRounds).
func (e *env) run(ctx context.Context, w *workload, o runOpts) (*runResult, error) {
	if o.trace {
		return e.runTraced(ctx, w, o)
	}
	var setups []float64
	var live *liveRun
	for i := 0; i < coldStarts; i++ {
		if live != nil {
			live.stop()
		}
		var d float64
		var err error
		if live, d, err = e.coldStart(ctx, w); err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	defer live.stop()

	// Round -1: heaps, pools and connection buffers reach their working
	// size before anything is timed.
	if _, err := e.measureRound(w, live, w.roundOps(o.seed, -1)); err != nil {
		return nil, err
	}
	var rounds []*roundResult
	var peakRSS float64
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	for !roundsDone(len(rounds), minRounds, time.Since(start), budget) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rr, err := e.measureRound(w, live, w.roundOps(o.seed, len(rounds)))
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rr)
		if len(rounds) == rssRound {
			if peakRSS, err = procPeakRSSMB(live.srv.pid()); err != nil {
				return nil, fmt.Errorf("%s: read server rss: %w", w.Name, err)
			}
		}
	}

	res := summarize(w, o.seed, rounds)
	res.Metrics["setup_s"] = median(setups)
	res.Metrics["server_peak_rss_mb"] = peakRSS
	return res, nil
}

// roundsDone decides after each round whether to stop: never before
// atLeast rounds, and otherwise as soon as one more round of the average
// length seen so far would end further from the budget than stopping now
// does.
func roundsDone(rounds, atLeast int, elapsed, budget time.Duration) bool {
	if rounds < atLeast {
		return false
	}
	return elapsed+elapsed/time.Duration(2*rounds) >= budget
}

// summarize reduces measured rounds to the end-to-end metrics. Each round
// gives its own latency percentiles, rate and CPU per ask, brought to the
// reference speed by the round's host factors; the run reports the median
// round, so that a stretch of rounds the host disturbed beyond what the
// factor corrects does not move it. A failed ask keeps its latency and
// leaves asks_per_s.
func summarize(w *workload, seed int64, rounds []*roundResult) *runResult {
	res := &runResult{
		Workload: w.Name, Seed: seed, ScriptSHA: scriptSHA256(w, seed),
		FailReasons: map[string]int{}, Metrics: map[string]float64{},
	}
	var p50, p90, rate, cpu []float64
	byClass := map[string][]float64{}
	for _, r := range rounds {
		attempted, correct, lat := r.asks()
		f, fc := r.host.factor(), r.host.cpuFactor()
		raw := roundStat{
			WallS: r.wall.Seconds(), Host: f, HostCPU: fc,
			AsksPerS: float64(correct) / r.wall.Seconds(), CPUMSPerAsk: div(r.cpuMS, float64(attempted)),
			P50: percentile(lat, 50), P90: percentile(lat, 90),
		}
		res.PerRound = append(res.PerRound, raw)
		p50, p90 = append(p50, raw.P50/f), append(p90, raw.P90/f)
		rate, cpu = append(rate, raw.AsksPerS*f), append(cpu, raw.CPUMSPerAsk/fc)
		res.Attempted += attempted
		for i := range r.samples {
			s := &r.samples[i]
			if s.Fail != "" {
				res.Failed++
				res.FailReasons[s.Fail]++
			}
			if s.Kind == opAsk {
				byClass[s.Class] = append(byClass[s.Class], s.ms())
			}
		}
	}
	res.Metrics["ask_p50_ms"] = median(p50)
	res.Metrics["ask_p90_ms"] = median(p90)
	res.Metrics["asks_per_s"] = median(rate)
	res.Metrics["server_cpu_ms_per_ask"] = median(cpu)
	for class, l := range byClass {
		res.Classes = append(res.Classes, classStat{class, float64(len(l)) / float64(res.Attempted), percentile(l, 50)})
	}
	sort.Slice(res.Classes, func(i, j int) bool { return res.Classes[i].P50 < res.Classes[j].P50 })
	return res
}

// boundaryRisk names the percentiles (of 50 and 90) that sit within five
// points of a boundary between two classes whose median latencies differ by
// more than half: there a few asks changing class between runs would move
// the percentile by the gap between the classes, not by the program's
// speed. classes must be sorted by P50.
func boundaryRisk(classes []classStat) []string {
	var risks []string
	cum := 0.0
	for i := 0; i+1 < len(classes); i++ {
		cum += classes[i].Share * 100
		if classes[i].P50 <= 0 || classes[i+1].P50/classes[i].P50 < 1.5 {
			continue
		}
		for _, p := range []float64{50, 90} {
			if d := cum - p; d > -5 && d < 5 {
				risks = append(risks, fmt.Sprintf("p%.0f is %.1f points from the %s|%s boundary at %.1f%%",
					p, d, classes[i].Class, classes[i+1].Class, cum))
			}
		}
	}
	return risks
}

// maxFailedShare is the share of failed operations above which a run is
// reported as an error, not as a slow result.
const maxFailedShare = 0.01

func (r *runResult) err() error {
	if r.Attempted > 0 && float64(r.Failed) > maxFailedShare*float64(r.Attempted) {
		return fmt.Errorf("%s: %d of %d operations failed: %v", r.Workload, r.Failed, r.Attempted, r.FailReasons)
	}
	return nil
}
