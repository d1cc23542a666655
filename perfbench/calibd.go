package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/gen"
	"mgba/internal/graph"
	"mgba/internal/netio"
	"mgba/internal/obs"
	"mgba/internal/serve"
	"mgba/internal/sta"
)

// calibdClients is the closed-loop client count; with server Parallelism
// 1 it keeps runnable work threads at the host's two CPUs.
const calibdClients = 2

// batchRetries bounds how often a client resends a batch the server
// refused with 429 or 503 before the op counts as failed.
const batchRetries = 20

// calibdClient drives one D8 session in a closed loop, tracking the
// session's cells on its own copy of the design so that every op applies.
type calibdClient struct {
	id      string
	z       *sizer
	batches [][]sizeOp // every batch the session accepted, for the replay
}

// batchReply is the part of a batch response the client checks.
type batchReply struct {
	Results []struct {
		Applied bool   `json:"applied"`
		Reason  string `json:"reason"`
	} `json:"results"`
	Status struct {
		Degraded bool `json:"degraded"`
		Partial  bool `json:"partial"`
	} `json:"status"`
	RetryAfterMS int64 `json:"retry_after_ms"`
}

// calibdRun is one bring-up of the daemon with its sessions.
type calibdRun struct {
	sv      *serve.Server
	base    string
	http    *http.Client
	clients []*calibdClient

	mu                         sync.Mutex
	sent, rejected, degraded   int
	acceptedBatches, failedOps int
	problems                   []string
}

func (r *calibdRun) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = r.sv.Shutdown(ctx) // the run's snapshots are scratch; a failed final flush changes nothing measured
	r.http.CloseIdleConnections()
}

// runCalibd is the calibd-d8 workload: calibdClients closed-loop clients,
// each on its own D8 session of one daemon (Parallelism 1, synchronous
// snapshots into a fresh directory), each op one batch of opsPerBatch
// seeded sizing ops followed by the daemon's incremental recalibration.
func runCalibd(cfg config, t *tally) error {
	serverCfg := serve.DefaultConfig()
	serverCfg.Parallelism = 1

	var run *calibdRun
	var gens []time.Duration
	for s := 0; s < setupRuns; s++ {
		if run != nil {
			run.shutdown()
			run = nil
		}
		runtime.GC()
		id := t.spanLog.begin("setup", -1, -1)
		clk := t.startSetup()
		d8, err := gen.Generate(gen.Suite()[7])
		if err != nil {
			return err
		}
		gens = append(gens, time.Since(clk.t0))
		sc := serverCfg
		sc.SnapshotDir = filepath.Join(cfg.workDir, fmt.Sprintf("snapshots-%d", s))
		sv, err := serve.New(sc)
		if err != nil {
			return err
		}
		if err := sv.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		run = &calibdRun{sv: sv, base: "http://" + sv.Addr(), http: &http.Client{}}
		var wg sync.WaitGroup
		errs := make([]error, calibdClients)
		for c := 0; c < calibdClients; c++ {
			d := d8
			if c > 0 {
				d = d8.Clone()
			}
			g, err := graph.Build(d)
			if err != nil {
				return err
			}
			cl := &calibdClient{id: fmt.Sprintf("d8-%d", c), z: newSizer(d, g, cfg.seed*1_000_003+uint64(c))}
			run.clients = append(run.clients, cl)
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if errs[c] = run.create(cl.id); errs[c] == nil {
					// Untimed warm-up batch.
					errs[c] = run.batch(t, cl, -1, 0)
				}
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				run.shutdown()
				return err
			}
		}
		t.endSetup(clk)
		t.spanLog.end(id)
	}
	defer run.shutdown()
	t.layer["gen.generate_ms"] = quantile(gens, 0.5)
	t.setupHeap = liveHeapMB()
	if run.failedOps > 0 {
		return fmt.Errorf("warm-up batch failed: %v", run.problems)
	}
	run.sent, run.rejected, run.degraded = 0, 0, 0

	// The window runs in quarters, and the clients meet at each boundary,
	// so that no request straddles two: the reference loop is read at
	// every boundary, and a traced run traces every second quarter.
	const slices = 4
	// --ops caps the batches each client sends in a slice.
	perSlice := 0
	if cfg.maxOps > 0 {
		perSlice = max(1, cfg.maxOps/(calibdClients*slices))
	}
	opSeq := 0
	ref := t.refLoop()
	for k := 0; k < slices; k++ {
		traced := cfg.trace && k%2 == 1
		class := 0
		if traced {
			class = 1
		}
		obs.Enable(traced)
		done := len(t.lat[class])
		before := takeSample(traced)
		cpu0 := cpuTime()
		start := time.Now()
		deadline := start.Add(cfg.window() / time.Duration(slices))
		var wg sync.WaitGroup
		errs := make([]error, calibdClients)
		for c, cl := range run.clients {
			wg.Add(1)
			go func(c int, cl *calibdClient) {
				defer wg.Done()
				for n := 0; time.Now().Before(deadline) && (perSlice == 0 || n < perSlice); n++ {
					run.mu.Lock()
					op := opSeq
					opSeq++
					run.mu.Unlock()
					if errs[c] = run.batch(t, cl, op, class); errs[c] != nil {
						return
					}
				}
			}(c, cl)
		}
		wg.Wait()
		t.busy[class] += time.Since(start)
		cpu := cpuTime() - cpu0
		after := takeSample(traced)
		if traced {
			t.addDelta(before, after)
		}
		obs.Enable(false)
		// The clients' batches overlap, so CPU time and allocation are
		// shared out over the batches the slice completed, and CPU time is
		// scaled by the reference readings on either side of the slice.
		next := t.refLoop()
		if n := len(t.lat[class]) - done; n > 0 {
			perBatch := cpu / time.Duration(n)
			t.opCPU[class] = append(t.opCPU[class], perBatch)
			t.opScal[class] = append(t.opScal[class], ms(scaled(perBatch, (ref+next)/2)))
			t.opAlloc[class] = append(t.opAlloc[class], float64(after.allocs-before.allocs)/(1<<20)/float64(n))
		}
		ref = next
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	t.rssMB = peakRSSMB() // before the replay check adds its own sessions
	t.attempted = run.acceptedBatches + run.failedOps
	t.failed = run.failedOps
	t.problems = append(t.problems, run.problems...)
	t.guards = append(t.guards, guard{"degraded_ratio", "ratio", ratio(float64(run.degraded), float64(run.acceptedBatches))})
	t.layer["serve.rejected_ratio"] = ratio(float64(run.rejected), float64(run.sent))
	t.extra = append(t.extra,
		fmt.Sprintf("config: D8, %d closed-loop clients, daemon Parallelism %d, synchronous snapshots, %d sizing ops per batch",
			calibdClients, serverCfg.Parallelism, opsPerBatch),
		fmt.Sprintf("daemon: %d requests sent, %d refused (429/503), %d degraded", run.sent, run.rejected, run.degraded))

	return checkCalibd(cfg, t, run, serverCfg)
}

// create opens a D8 session on the daemon.
func (r *calibdRun) create(id string) error {
	body, _ := json.Marshal(map[string]string{"id": id, "design": "D8"}) // a map of strings always marshals
	resp, err := r.http.Post(r.base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("create %s: %s: %s", id, resp.Status, msg)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// batch sends one batch of seeded ops and waits for the recalibrated
// answer, resending after 429/503 refusals. op < 0 marks the warm-up
// batch, whose latency is not recorded. It returns an error only when the
// daemon cannot be reached at all; a refusal that outlasts the retries, an
// error status or an op that did not apply fails the op.
func (r *calibdRun) batch(t *tally, cl *calibdClient, op, class int) error {
	ops := cl.z.next(opsPerBatch)
	wire := make([]serve.Op, len(ops))
	for i, o := range ops {
		wire[i] = serve.Op{Op: "downsize", Instance: o.inst}
		if o.up {
			wire[i].Op = "upsize"
		}
	}
	body, err := json.Marshal(map[string]any{"ops": wire})
	if err != nil {
		return err
	}
	span := t.spanLog.begin("op", -1, op)
	defer t.spanLog.end(span)
	var reply batchReply
	var status int
	var lat time.Duration
	for attempt := 0; ; attempt++ {
		call := t.spanLog.begin("POST /v1/sessions/{id}/batch", span, op)
		t0 := time.Now()
		resp, err := r.http.Post(r.base+"/v1/sessions/"+cl.id+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		reply = batchReply{}
		err = json.NewDecoder(resp.Body).Decode(&reply)
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		resp.Body.Close()
		lat = time.Since(t0)
		t.spanLog.end(call)
		status = resp.StatusCode
		if err != nil && status == http.StatusOK {
			return fmt.Errorf("%s: bad batch reply: %w", cl.id, err)
		}
		refused := status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
		r.mu.Lock()
		r.sent++
		if refused {
			r.rejected++
		}
		r.mu.Unlock()
		if !refused || attempt == batchRetries {
			break
		}
		backoff := time.Duration(reply.RetryAfterMS) * time.Millisecond
		if backoff <= 0 || backoff > 100*time.Millisecond {
			backoff = 100 * time.Millisecond
		}
		time.Sleep(backoff)
	}

	problem := ""
	if status != http.StatusOK {
		problem = fmt.Sprintf("%s answered %d", cl.id, status)
	} else if len(reply.Results) != len(ops) {
		problem = fmt.Sprintf("%s: %d op results for %d ops", cl.id, len(reply.Results), len(ops))
	} else {
		for i, res := range reply.Results {
			if !res.Applied {
				problem = fmt.Sprintf("%s: op %d on instance %d did not apply: %s", cl.id, i, ops[i].inst, res.Reason)
				break
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if problem != "" {
		r.failedOps++
		if len(r.problems) < 8 {
			r.problems = append(r.problems, problem)
		}
		return nil
	}
	if _, err := cl.z.apply(ops); err != nil {
		return err
	}
	cl.batches = append(cl.batches, ops)
	if op < 0 {
		return nil
	}
	r.acceptedBatches++
	if reply.Status.Degraded || reply.Status.Partial {
		r.degraded++
	}
	t.lat[class] = append(t.lat[class], lat)
	return nil
}

// slacksReply is a session's GET .../slacks answer.
type slacksReply struct {
	Slacks  []float64 `json:"slacks_ps"`
	Weights []float64 `json:"weights"`
}

// checkCalibd replays every client's accepted batches in process through
// core.Calibrator.Recalibrate and requires each session's final slacks
// and weights to match the replay bit for bit; a mismatch fails one op.
// A traced run then times the replay rows.
func checkCalibd(cfg config, t *tally, run *calibdRun, serverCfg serve.Config) error {
	scfg := serverCfg.STA
	scfg.Parallelism = serverCfg.Parallelism
	type replay struct {
		m   *core.Model
		err error
		got slacksReply
	}
	out := make([]replay, len(run.clients))
	var wg sync.WaitGroup
	for c, cl := range run.clients {
		resp, err := run.http.Get(run.base + "/v1/sessions/" + cl.id + "/slacks")
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&out[c].got)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("%s slacks: %w", cl.id, err)
		}
		wg.Add(1)
		go func(c int, cl *calibdClient) {
			defer wg.Done()
			out[c].m, out[c].err = replayBatches(cl, scfg, serverCfg.Core)
		}(c, cl)
	}
	wg.Wait()
	var last *sizer
	for c, cl := range run.clients {
		if out[c].err != nil {
			return out[c].err
		}
		m := out[c].m
		if !sameBits(out[c].got.Weights, m.Weights) || !sameBits(out[c].got.Slacks, m.MGBA.Slack) {
			t.fail("%s: final slacks/weights differ from the in-process replay of its %d batches", cl.id, len(cl.batches))
		}
		// The clients interleave nondeterministically, so the digest runs
		// over each client's own sequence in client order.
		for _, ops := range cl.batches {
			for _, o := range ops {
				t.note(o.inst, fmt.Sprint(o.up))
			}
			t.endOp()
		}
		t.note(hashWeights(m.Weights))
		last = cl.z
	}
	t.extra = append(t.extra, "check: each session's final slacks and weights == in-process Calibrator replay, bit for bit")
	if !cfg.trace {
		return nil
	}
	t.layer["serve.recalibrate_ms"] = ratio(t.acc["serve.recalibrate_ns"]/1e6, t.acc["serve.recalibrate_ns#n"])
	var latSum time.Duration
	for _, d := range t.lat[1] {
		latSum += d
	}
	t.layer["serve.overhead_ms"] = ratio(ms(latSum), float64(len(t.lat[1]))) - t.layer["serve.recalibrate_ms"]
	if err := probeSnapshot(cfg, t, out[len(out)-1].m, last); err != nil {
		return err
	}
	// The sessions end on a generated or a freshly sized state, depending
	// on how many batches the window held; the replays run on the
	// generated design, which is the same in every run.
	d8, err := gen.Generate(gen.Suite()[7])
	if err != nil {
		return err
	}
	return probeLayers(t, d8, scfg, serverCfg.Core.K)
}

// replayBatches rebuilds a client's session in process: a fresh D8, a
// cold calibration (the daemon's create), then every accepted batch
// applied and recalibrated in order.
func replayBatches(cl *calibdClient, scfg sta.Config, opt core.Options) (*core.Model, error) {
	d, err := gen.Generate(gen.Suite()[7])
	if err != nil {
		return nil, err
	}
	g, err := graph.Build(d)
	if err != nil {
		return nil, err
	}
	cal, err := core.NewCalibrator(engine.NewSession(g), scfg, opt)
	if err != nil {
		return nil, err
	}
	m, err := cal.Calibrate(context.Background())
	if err != nil {
		return nil, err
	}
	z := &sizer{d: d, g: g}
	for _, ops := range cl.batches {
		dirty, err := z.apply(ops)
		if err != nil {
			return nil, err
		}
		if m, err = cal.Recalibrate(context.Background(), dirty); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// probeSnapshot times netio.SaveCheckpointFile of a D8 session's
// checkpoint into the run's directory (median of three writes) and
// records the file's size.
func probeSnapshot(cfg config, t *tally, m *core.Model, z *sizer) error {
	c := &netio.Checkpoint{Design: z.d, Weights: m.Weights, State: json.RawMessage(`{"source":"D8","applied":1,"calibrated":true}`)}
	path := filepath.Join(cfg.workDir, "probe.ckpt")
	var ds []time.Duration
	for i := 0; i < 3; i++ {
		var err error
		ds = append(ds, t.spanLog.timed("probe.netio.SaveCheckpointFile", -1, -1, func() {
			err = netio.SaveCheckpointFile(path, c)
		}))
		if err != nil {
			return err
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	t.layer["netio.snapshot_ms"] = quantile(ds, 0.5)
	t.layer["netio.snapshot_bytes"] = float64(st.Size())
	return nil
}
