package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parallax"
	"parallax/internal/checkpoint"
	"parallax/internal/cluster"
	"parallax/internal/collective"
	"parallax/internal/core"
	"parallax/internal/graph"
	"parallax/internal/optim"
	"parallax/internal/psrt"
	"parallax/internal/tensor"
	"parallax/internal/transform"
	"parallax/internal/transport"
)

// Replay timing: each metric is the median per-call time over up to
// maxSamples spans, each span covering enough calls to last about
// sampleTarget, within a budget of metricBudget per metric.
const (
	sampleTarget = 5 * time.Millisecond
	metricBudget = 300 * time.Millisecond
	maxSamples   = 15
	minSamples   = 3
)

// replay times calls into one layer's public functions, recording one
// span per sample under the layer's span.
type replay struct {
	tr     *tracer
	parent int
}

func (r *replay) time(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	one := max(time.Since(start), time.Microsecond)
	reps := max(1, int(sampleTarget/one))
	samples := min(maxSamples, max(minSamples, int(metricBudget/(time.Duration(reps)*one))))
	per := make([]float64, samples)
	for i := range per {
		id := r.tr.begin(name, r.parent)
		for k := 0; k < reps; k++ {
			fn()
		}
		per[i] = float64(r.tr.end(id)) / float64(reps)
	}
	return time.Duration(median(per))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerEnv is what every replay draws its shapes and inputs from: the
// workload's own graph, feeds and one replica's gradients of step 0.
type layerEnv struct {
	w     workload
	g     *parallax.Graph
	feeds *feeder
	grads *graph.GradSet
	m     metrics
}

func varInit(g *parallax.Graph, name string) *tensor.Dense {
	for _, v := range g.Variables() {
		if v.Name == name {
			return v.Init
		}
	}
	panic(fmt.Sprintf("no variable %q", name))
}

// denseElems is the element count of the workload's dense (AllReduce)
// variables: one fusion bucket's worth.
func (e *layerEnv) denseElems() int {
	n := 0
	for _, v := range e.g.Variables() {
		if e.g.GradKind(v) != graph.GradSparse {
			n += v.Init.NumElements()
		}
	}
	return n
}

// partRows is the row count of one sparse partition.
func (e *layerEnv) partRows() int { return tensor.PartitionRows(e.w.vocab, partitions)[0].Len() }

var sink any

func (e *layerEnv) tensorLayer(r *replay) {
	w := e.w
	rng := parallax.NewRNG(1)
	h := rng.RandN(1, w.batch, w.hidden)
	w2 := varInit(e.g, "softmax/kernel")
	logits := tensor.MatMul(h, w2)
	tokens, labels := e.feeds.tokens(0, 0)
	_, dlogits := tensor.SoftmaxCrossEntropy(logits, labels)
	table := varInit(e.g, "embedding").Clone()
	grad := tensor.NewSparse(tokens, rng.RandN(0.01, w.batch, w.embed), w.vocab)

	mm := r.time("tensor.matmul", func() { sink = tensor.MatMul(h, w2) })
	e.m.set("tensor.matmul_ms", ms(mm), "ms")
	e.m.set("tensor.matmul_gflops", 2*float64(w.batch*w.hidden*w.classes)/mm.Seconds()/1e9, "GFLOP/s")
	e.m.set("tensor.matmul_t1_ms", ms(r.time("tensor.matmul_t1", func() { sink = tensor.MatMulT1(h, dlogits) })), "ms")
	e.m.set("tensor.matmul_t2_ms", ms(r.time("tensor.matmul_t2", func() { sink = tensor.MatMulT2(dlogits, w2) })), "ms")
	e.m.set("tensor.softmax_ce_ms", ms(r.time("tensor.softmax_ce", func() {
		_, sink = tensor.SoftmaxCrossEntropy(logits, labels)
	})), "ms")
	e.m.set("tensor.tanh_ms", ms(r.time("tensor.tanh", func() { sink = tensor.TanhForward(h) })), "ms")
	e.m.set("tensor.gather_ms", ms(r.time("tensor.gather", func() { sink = tensor.Gather(table, tokens) })), "ms")
	e.m.set("tensor.scatter_add_ms", ms(r.time("tensor.scatter_add", func() {
		tensor.ScatterAddSparse(table, -learningRate, grad)
	})), "ms")
}

func (e *layerEnv) graphLayer(r *replay) error {
	ex, err := graph.NewExec(e.g)
	if err != nil {
		return err
	}
	const distinct = 8
	feeds := make([]parallax.Feed, distinct)
	for i := range feeds {
		feeds[i], _ = e.feeds.feed(i, 0)
	}
	var stepErr error
	i := 0
	step := func() {
		_, gs, err := ex.Step(feeds[i%distinct])
		if err != nil {
			stepErr = err
		}
		sink = gs
		i++
	}
	e.m.set("graph.step_ms", ms(r.time("graph.Exec.Step", step)), "ms")
	const n = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := 0; k < n; k++ {
		step()
	}
	runtime.ReadMemStats(&after)
	e.m.set("graph.allocs_per_step", float64(after.Mallocs-before.Mallocs)/n, "count")
	e.m.set("graph.bytes_per_step", float64(after.TotalAlloc-before.TotalAlloc)/n, "B")
	return stepErr
}

func (e *layerEnv) optimLayer(r *replay) {
	opt := optim.NewSGD(learningRate)
	vals := map[string]*tensor.Dense{}
	for _, v := range e.g.Variables() {
		vals[v.Name] = v.Init.Clone()
	}
	names := make([]string, 0, len(e.grads.Dense))
	for _, v := range e.g.Variables() {
		if e.grads.Dense[v.Name] != nil {
			names = append(names, v.Name)
		}
	}
	e.m.set("optim.apply_dense_ms", ms(r.time("optim.ApplyDense", func() {
		for _, n := range names {
			opt.ApplyDense(n, vals[n], e.grads.Dense[n])
		}
	})), "ms")
	sg := e.grads.Sparse["embedding"]
	e.m.set("optim.apply_sparse_ms", ms(r.time("optim.ApplySparse", func() {
		opt.ApplySparse("embedding", vals["embedding"], sg)
	})), "ms")
}

// tcpPair dials the two processes of topo over loopback inside this
// process, on fresh 127.0.0.1:0 listeners.
func tcpPair(ctx context.Context, topo transport.Topology) ([]*transport.TCP, error) {
	var lns []net.Listener
	var addrs []string
	for p := 0; p < machines; p++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	fabs := make([]*transport.TCP, machines)
	err := forAgents(machines, func(p int) error {
		var err error
		fabs[p], err = transport.DialTCP(ctx, transport.TCPConfig{
			Topo: topo, Process: p, Addrs: addrs, Listener: lns[p], DialTimeout: 20 * time.Second,
		})
		return err
	})
	if err != nil {
		closeFabrics(fabs)
		return nil, err
	}
	return fabs, nil
}

func closeFabrics(fabs []*transport.TCP) {
	forAgents(len(fabs), func(p int) error {
		if fabs[p] != nil {
			fabs[p].Close()
		}
		return nil
	})
}

// clusterTopo is the 2 × 2 cluster's endpoint layout.
func clusterTopo() transport.Topology {
	res := cluster.Uniform(machines, gpusPerMachine)
	return transport.Topology{Workers: workers, Machines: machines, MachineOfWorker: res.WorkerMachines()}
}

func (e *layerEnv) collectiveLayer(ctx context.Context, r *replay) error {
	bufs := make([]*tensor.Dense, workers)
	for i := range bufs {
		bufs[i] = tensor.NewDense(e.denseElems()) // zeros: sums never overflow
	}
	tags := collective.TagsFor("bench/fuse")
	e.m.set("collective.allreduce_ms", ms(r.time("collective.AllReduce", func() {
		collective.RunWorld(workers, func(c *collective.Comm) {
			collective.AllReduceTagged(c, tags, bufs[c.Rank()])
		})
	})), "ms")

	topo := clusterTopo()
	fabs, err := tcpPair(ctx, topo)
	if err != nil {
		return err
	}
	defer closeFabrics(fabs)
	comms := make([]*collective.Comm, workers)
	outs := make([][]float64, workers)
	for w := range comms {
		comms[w] = collective.NewComm(fabs[topo.MachineOfWorker[w]].Conduit(w), workers)
		outs[w] = make([]float64, workers)
	}
	e.m.set("collective.agree_ms", ms(r.time("collective.AllGatherScalars", func() {
		var wg sync.WaitGroup
		for w := range comms {
			wg.Add(1)
			go func() {
				defer wg.Done()
				collective.AllGatherScalarsInto(comms[w], "bench/agree", 1, outs[w])
			}()
		}
		wg.Wait()
	})), "ms")

	// Round trip between worker 0 (process 0) and worker 2 (process 1).
	c0, c2 := fabs[0].Conduit(0), fabs[1].Conduit(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			v := c2.RecvScalar(0, "bench/rtt")
			c2.SendScalar(0, "bench/rtt", v)
			if v < 0 {
				return
			}
		}
	}()
	rtt := r.time("transport.rtt", func() {
		c0.SendScalar(2, "bench/rtt", 1)
		c0.RecvScalar(2, "bench/rtt")
	})
	c0.SendScalar(2, "bench/rtt", -1)
	c0.RecvScalar(2, "bench/rtt")
	<-done
	e.m.set("transport.rtt_us", float64(rtt)/float64(time.Microsecond), "us")
	return nil
}

func (e *layerEnv) psrtLayer(ctx context.Context, r *replay) error {
	ranges := tensor.PartitionRows(e.w.vocab, partitions)
	table := varInit(e.g, "embedding")
	newServer := func() (*psrt.Server, error) {
		srv, err := psrt.NewServer(psrt.Config{Sources: 1, Optimizer: optim.NewSGD(learningRate), Mode: psrt.Sync})
		if err != nil {
			return nil, err
		}
		return srv, srv.AddVar("embedding", table, ranges, []int{0}, true)
	}
	srv, err := newServer()
	if err != nil {
		return err
	}
	part0 := tensor.SplitSparse(e.grads.Sparse["embedding"].Coalesce(), ranges)[0]
	var opErr error
	check := func(err error) {
		if err != nil {
			opErr = err
		}
	}
	// PushSparse takes ownership of the gradient, so each call pushes a
	// clone; the clone is part of what the caller pays.
	e.m.set("psrt.push_sparse_ms", ms(r.time("psrt.PushSparse", func() {
		check(srv.PushSparse("embedding", 0, part0.Clone()))
	})), "ms")
	w2 := varInit(e.g, "softmax/kernel")
	check(srv.AddVar("softmax/kernel", w2, tensor.PartitionRows(w2.Dim(0), 1), []int{0}, false))
	dgrad := e.grads.Dense["softmax/kernel"]
	e.m.set("psrt.push_dense_ms", ms(r.time("psrt.PushDense", func() {
		check(srv.PushDense("softmax/kernel", 0, dgrad))
	})), "ms")
	dst := tensor.NewDense(ranges[0].Len(), e.w.embed)
	e.m.set("psrt.pull_ms", ms(r.time("psrt.PullInto", func() {
		check(srv.PullInto("embedding", 0, 0, dst))
	})), "ms")
	e.m.set("psrt.pull_bytes", float64(dst.Bytes()), "B")
	if opErr != nil {
		return opErr
	}

	// The same pull through a Client: worker 0 on process 0, the server
	// of machine 1 on process 1.
	topo := transport.Topology{Workers: 1, Machines: machines, MachineOfWorker: []int{0}}
	fabs, err := tcpPair(ctx, topo)
	if err != nil {
		return err
	}
	remote, err := newServer()
	if err != nil {
		closeFabrics(fabs)
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		psrt.ServeConduit(remote, fabs[1].Conduit(topo.ServerEndpoint(1)), 0)
	}()
	cl := psrt.NewClient(fabs[0].Conduit(0), topo.ServerEndpoint(1))
	e.m.set("psrt.client_pull_ms", ms(r.time("psrt.Client.PullInto", func() {
		check(cl.PullInto("embedding", 0, 0, dst))
	})), "ms")
	closeFabrics(fabs)
	<-served
	return opErr
}

func (e *layerEnv) transportLayer(r *replay) error {
	n := max(e.denseElems(), e.partRows()*e.w.embed)
	data := parallax.NewRNG(2).RandN(1, n).Data()
	mbps := func(d time.Duration) float64 { return float64(4*n) / d.Seconds() / 1e6 }
	buf := transport.AppendF32s(nil, data)
	e.m.set("transport.encode_f32_mbps", mbps(r.time("transport.AppendF32s", func() {
		buf = transport.AppendF32s(buf[:0], data)
	})), "MB/s")
	dst := make([]float32, n)
	var decErr error
	e.m.set("transport.decode_f32_mbps", mbps(r.time("transport.Decoder.F32s", func() {
		if err := transport.NewDecoder(buf).F32s(n, dst); err != nil {
			decErr = err
		}
	})), "MB/s")
	half := transport.AppendF16s(nil, data)
	e.m.set("transport.encode_f16_mbps", mbps(r.time("transport.AppendF16s", func() {
		half = transport.AppendF16s(half[:0], data)
	})), "MB/s")
	return decErr
}

// checkpointLayer replays the codec and shard IO on the shard machine 0
// wrote in this run's Save.
func (e *layerEnv) checkpointLayer(r *replay, saved, scratch string) error {
	meta, recs, err := checkpoint.ReadShard(saved, 0)
	if err != nil {
		return err
	}
	b, err := checkpoint.Encode(meta, recs)
	if err != nil {
		return err
	}
	e.m.set("checkpoint.shard_bytes", float64(len(b)), "B")
	var opErr error
	check := func(err error) {
		if err != nil {
			opErr = err
		}
	}
	e.m.set("checkpoint.encode_ms", ms(r.time("checkpoint.Encode", func() {
		_, err := checkpoint.Encode(meta, recs)
		check(err)
	})), "ms")
	e.m.set("checkpoint.decode_ms", ms(r.time("checkpoint.Decode", func() {
		_, _, err := checkpoint.Decode(b)
		check(err)
	})), "ms")
	dir := filepath.Join(scratch, "replay-shard")
	defer os.RemoveAll(dir)
	e.m.set("checkpoint.write_shard_ms", ms(r.time("checkpoint.WriteShard", func() {
		check(checkpoint.WriteShard(dir, meta, recs))
	})), "ms")
	e.m.set("checkpoint.read_shard_ms", ms(r.time("checkpoint.ReadShard", func() {
		_, _, err := checkpoint.ReadShard(dir, 0)
		check(err)
	})), "ms")
	return opErr
}

// countingFabric counts the embedding rows parameter servers send in
// their replies — the rows a pull actually moves over the wire.
type countingFabric struct {
	transport.Fabric
	rows  *atomic.Int64
	width int
}

func (f countingFabric) Conduit(rank int) transport.Conduit {
	return countingConduit{f.Fabric.Conduit(rank), f.rows, f.width}
}

type countingConduit struct {
	transport.Conduit
	rows  *atomic.Int64
	width int
}

func (c countingConduit) SendPS(dst int, tag string, m *transport.PSMsg) {
	if m.Op == transport.PSReply {
		var n int
		for _, d := range m.Dense {
			n += d.NumElements() / c.width
		}
		for _, s := range m.Sparse {
			n += s.NNZRows()
		}
		c.rows.Add(int64(n))
	}
	c.Conduit.SendPS(dst, tag, m)
}

// pullRowsLayer runs the workload's job as two transform.Trainers over a
// loopback TCP pair whose server conduits count the rows they send, and
// compares that with the rows the step's batches gather from partitions
// on the other machine: the share of pulled rows a step uses.
func (e *layerEnv) pullRowsLayer(ctx context.Context, r *replay, graphs []*parallax.Graph, steps int) (gathered, pulled int64, err error) {
	res := cluster.Uniform(machines, gpusPerMachine)
	plan, err := core.BuildPlan(planVars(graphs[0]), core.Options{
		Arch: core.ArchHybrid, NumMachines: machines, SparsePartitions: partitions, SmartPlacement: true,
	})
	if err != nil {
		return 0, 0, err
	}
	var owners []int
	for _, a := range plan.Assignments {
		if a.Name == "embedding" {
			owners = a.Servers
		}
	}
	if len(owners) != partitions {
		return 0, 0, fmt.Errorf("embedding has %d partition owners, want %d", len(owners), partitions)
	}
	topo := clusterTopo()
	fabs, err := tcpPair(ctx, topo)
	if err != nil {
		return 0, 0, err
	}
	var rows atomic.Int64
	trs := make([]*transform.Trainer, machines)
	err = forAgents(machines, func(p int) error {
		var err error
		trs[p], err = transform.New(graphs[p], transform.Options{
			Plan: plan, Resource: res, LocalAggregation: true,
			NewOptimizer: func() optim.Optimizer { return optim.NewSGD(learningRate) },
			Fabric:       countingFabric{fabs[p], &rows, e.w.embed},
		})
		return err
	})
	defer forAgents(machines, func(p int) error {
		if trs[p] != nil {
			trs[p].Close()
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	ranges := tensor.PartitionRows(e.w.vocab, partitions)
	feeds := make([]graph.Feed, workers)
	for s := 0; s <= steps; s++ {
		for w := range feeds {
			feeds[w], _ = e.feeds.feed(s, w)
		}
		if s == 1 {
			rows.Store(0) // step 0 warms up
			gathered = 0
		}
		id := r.tr.begin("transform.Trainer.Step", r.parent)
		err := forAgents(machines, func(p int) error {
			_, err := trs[p].Step(feeds)
			return err
		})
		r.tr.end(id)
		if err != nil {
			return 0, 0, err
		}
		for w := range feeds {
			seen := map[int]bool{}
			for _, t := range feeds[w].Ints["tokens"] {
				if owners[tensor.PartitionOfRow(ranges, t)] != topo.MachineOfWorker[w] && !seen[t] {
					seen[t] = true
					gathered++
				}
			}
		}
	}
	return gathered, rows.Load(), nil
}

// planVars mirrors the session's planner inputs (default α for sparse
// variables), so the replay places partitions as Open does.
func planVars(g *parallax.Graph) []core.VarInfo {
	var vars []core.VarInfo
	for _, v := range g.Variables() {
		width := int64(1)
		for _, d := range v.Shape[1:] {
			width *= int64(d)
		}
		sparse := g.GradKind(v) == graph.GradSparse
		alpha := 1.0
		if sparse {
			alpha = 0.05
		}
		vars = append(vars, core.VarInfo{
			Name: v.Name, Rows: int64(v.Shape[0]), Width: width,
			Sparse: sparse, Alpha: alpha, PartitionTarget: v.PartitionScope >= 0,
		})
	}
	return vars
}
