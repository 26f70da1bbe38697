package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/archive"
	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/catalyst"
	"nekrs-sensei/internal/checkpoint"
	"nekrs-sensei/internal/codec"
	"nekrs-sensei/internal/intransit"
	"nekrs-sensei/internal/isosurf"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/nekrs"
	"nekrs-sensei/internal/render"
	"nekrs-sensei/internal/staging"
	"nekrs-sensei/internal/tensor"
	"nekrs-sensei/internal/vtkdata"
)

// The isolated layer probes of the traced pass. Each times calls into
// one package's public functions from outside it: the kernel and
// solver probes on a fresh pb146 case, the data-plane probes on the
// two consecutive steps the traced pass captured (per producer rank,
// the five solver arrays; the first step carries the grid). Every
// probe repeats a few times and reports the median.

const probeReps = 5

// timeMedian runs f reps times and returns its median duration.
func timeMedian(reps int, f func()) time.Duration {
	d := make([]float64, reps)
	for i := range d {
		begin := time.Now()
		f()
		d[i] = float64(time.Since(begin))
	}
	return time.Duration(median(d))
}

func mbPerSecond(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

func runProbes(cfg *runConfig, cap *captured, into map[string]float64) error {
	for rank, s := range cap.steps {
		if len(s) < 2 {
			return fmt.Errorf("rank %d captured %d steps, the probes need 2", rank, len(s))
		}
	}
	probeTensor(cfg, into)
	if err := probeSolver(cfg, into); err != nil {
		return fmt.Errorf("solver: %w", err)
	}
	if err := probeRender(cfg, cap, into); err != nil {
		return fmt.Errorf("render: %w", err)
	}
	if err := probeAdios(cap, into); err != nil {
		return fmt.Errorf("adios: %w", err)
	}
	probeCodec(cap, into)
	if err := probeStaging(cap, into); err != nil {
		return fmt.Errorf("staging: %w", err)
	}
	if err := probeIntransit(cap, into); err != nil {
		return fmt.Errorf("intransit: %w", err)
	}
	if err := probeArchive(cfg, cap, into); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	return nil
}

// tensorProbeBytes is the size of the field the tensor kernels stream
// over: 8x the 4 MiB of L2 on the two cores (2 MiB each), so element
// blocks are not cache-resident between passes.
const tensorProbeBytes = 32 << 20

// probeTensor times the three derivative kernels and the 8 -> 12
// point dealiasing interpolation over order-7 element blocks.
func probeTensor(cfg *runConfig, into map[string]float64) {
	const nq, m = 8, 12
	np := nq * nq * nq
	elems := tensorProbeBytes / 8 / np
	if cfg.smoke {
		elems = 64
	}
	nodes, _ := tensor.GLL(nq)
	fine, _ := tensor.GLL(m)
	d := tensor.DerivMatrix(nodes)
	interp := tensor.InterpMatrix(nodes, fine)
	u := make([]float64, elems*np)
	out := make([]float64, elems*np)
	for i := range u {
		u[i] = math.Sin(float64(i) * 1e-3)
	}
	deriv := timeMedian(3, func() {
		for e := 0; e < elems; e++ {
			ue, oe := u[e*np:(e+1)*np], out[e*np:(e+1)*np]
			tensor.DerivR(d, nq, ue, oe)
			tensor.DerivS(d, nq, ue, oe)
			tensor.DerivT(d, nq, ue, oe)
		}
	})
	points := float64(3 * elems * np) // derivative evaluations
	into["tensor.deriv_ns_per_point"] = float64(deriv.Nanoseconds()) / points
	// Computed flops: one multiply-add per matrix column per point.
	into["tensor.deriv_gflops"] = points * 2 * nq / float64(deriv.Nanoseconds())
	fineOut := make([]float64, m*m*m)
	scratch := make([]float64, tensor.Interp3DScratchLen(nq, m))
	interpTime := timeMedian(3, func() {
		for e := 0; e < elems; e++ {
			tensor.Interp3D(interp, nq, m, u[e*np:(e+1)*np], fineOut, scratch)
		}
	})
	into["tensor.interp3d_ns_per_point"] = float64(interpTime.Nanoseconds()) / float64(elems*np)
}

// probeSolver builds the pb146 case on two ranks and times what needs
// a live solver: the gather-scatter over the mesh's global ids, a
// scalar allreduce, the solver's allocations per step, the
// device-to-host staging of the NekDataAdaptor, and one FldWriter
// dump.
func probeSolver(cfg *runConfig, into map[string]float64) error {
	order := 7
	if cfg.smoke {
		order = 3
	}
	dir, err := os.MkdirTemp(cfg.scratch, "fld-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pb := cases.PB146(1, order)
	staged := newCaptured(2)
	return mpirt.RunErr(2, func(comm *mpirt.Comm) error {
		rank := comm.Rank()
		sim, err := nekrs.NewSim(comm, nil, pb)
		if err != nil {
			return err
		}
		sim.Solver.Step() // first step bootstraps BDF1 and allocates lazily
		comm.Barrier()
		before := readMem()
		const steps = 2
		for i := 0; i < steps; i++ {
			sim.Solver.Step()
		}
		comm.Barrier()
		after := readMem()

		gsh := sim.Solver.GS()
		u := make([]float64, gsh.Len())
		for i := range u {
			u[i] = 1
		}
		comm.Barrier()
		gsTime := timeMedian(probeReps, func() {
			for i := 0; i < 20; i++ {
				gsh.Sum(u)
				for j := range u {
					u[j] = 1
				}
			}
		})
		allreduce := timeMedian(probeReps, func() {
			for i := 0; i < 1000; i++ {
				comm.AllreduceF64Scalar(1, mpirt.OpSum)
			}
		})
		if err := staged.captureState(sim, rank); err != nil {
			return err
		}
		comm.Barrier()
		w := &checkpoint.FldWriter{Dir: dir, Prefix: "probe", Acct: sim.Acct, Storage: sim.Storage}
		begin := time.Now()
		n, err := w.Write(sim.Solver, sim.Solver.StepCount())
		dump := time.Since(begin)
		if err != nil {
			return err
		}
		comm.Barrier()
		if rank == 0 {
			// The MemStats window is process-wide: both ranks' steps.
			into["fluid.allocs_per_step"] = float64(memBetween(before, after).mallocs) / steps
			into["gs.apply_us"] = float64(gsTime.Microseconds()) / 20
			into["mpirt.allreduce_us"] = float64(allreduce.Nanoseconds()) / 1e3 / 1000
			into["core.d2h_mb_per_s"] = mbPerSecond(staged.d2hBytes, staged.d2hTime)
			into["checkpoint.fld_mb_per_dump"] = mb(n)
			into["checkpoint.fld_mb_per_s"] = mbPerSecond(n, dump)
		}
		return nil
	})
}

// gridOf rebuilds one rank's VTK grid from its two captured steps:
// the structure of the first, the arrays of the second.
func gridOf(steps []*adios.Step) (*vtkdata.UnstructuredGrid, error) {
	structure, err := structureOf(steps[0])
	if err != nil {
		return nil, err
	}
	return gridWith(structure, steps[1])
}

// structureOf reads the grid a structure-carrying step holds.
func structureOf(s *adios.Step) (*vtkdata.UnstructuredGrid, error) {
	for _, name := range []string{"points", "connectivity", "offsets", "types"} {
		if s.FindVar(name) == nil {
			return nil, fmt.Errorf("step %d lacks %s", s.Step, name)
		}
	}
	return &vtkdata.UnstructuredGrid{
		Points: s.FindVar("points").F64, Connectivity: s.FindVar("connectivity").I64,
		Offsets: s.FindVar("offsets").I64, CellTypes: s.FindVar("types").U8,
	}, nil
}

// gridWith returns a grid sharing structure's geometry with the five
// solver arrays of s attached, zero-copy.
func gridWith(structure *vtkdata.UnstructuredGrid, s *adios.Step) (*vtkdata.UnstructuredGrid, error) {
	g := &vtkdata.UnstructuredGrid{Points: structure.Points, Connectivity: structure.Connectivity,
		Offsets: structure.Offsets, CellTypes: structure.CellTypes}
	for _, name := range solverArrays {
		v := s.FindVar("array/" + name)
		if v == nil {
			return nil, fmt.Errorf("step %d lacks %s", s.Step, name)
		}
		if err := g.AddPointData(name, 1, v.F64); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// probeRender runs the workload's own two image pipelines stage by
// stage on the captured grids, two ranks as in the workloads: filter
// (slice, contour), draw, binary-swap composite, PNG encode.
func probeRender(cfg *runConfig, cap *captured, into map[string]float64) error {
	px := 512
	if cfg.smoke {
		px = 64
	}
	script := pb146Script(px)
	if cfg.workload == "rbc-mesh-live" {
		script = rbcScript(px, 2)
	}
	pipelines, err := catalyst.ParsePipelines([]byte(script))
	if err != nil {
		return err
	}
	ranks := len(cap.steps)
	var mu sync.Mutex
	var triangles int
	return mpirt.RunErr(ranks, func(comm *mpirt.Comm) error {
		rank := comm.Rank()
		g, err := gridOf(cap.steps[rank])
		if err != nil {
			return err
		}
		lo := []float64{math.Inf(1), math.Inf(1), math.Inf(1)}
		hi := []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
		for p := 0; p < g.NumPoints(); p++ {
			for d := 0; d < 3; d++ {
				lo[d] = math.Min(lo[d], g.Points[3*p+d])
				hi[d] = math.Max(hi[d], g.Points[3*p+d])
			}
		}
		lo, hi = comm.AllreduceF64(lo, mpirt.OpMin), comm.AllreduceF64(hi, mpirt.OpMax)

		var filter [2]time.Duration // slice, contour
		var draw, composite, encode time.Duration
		var drawn int
		var compositeAlloc uint64
		for _, p := range pipelines {
			color := g.FindPointData(p.Field).Data
			var soup *render.TriangleSoup
			var ferr error
			if p.Slice != nil {
				filter[0] = timeMedian(probeReps, func() {
					soup, ferr = isosurf.SliceCells(g, p.Slice.Normal, p.Slice.Offset, color)
				})
			} else {
				field := g.FindPointData(p.Contour.Field).Data
				filter[1] = timeMedian(probeReps, func() {
					soup, ferr = isosurf.ContourCells(g, field, color, p.Contour.Iso)
				})
			}
			if ferr != nil {
				return ferr
			}
			smin, smax := math.Inf(1), math.Inf(-1)
			for _, v := range color {
				smin, smax = math.Min(smin, v), math.Max(smax, v)
			}
			smin = comm.AllreduceF64Scalar(smin, mpirt.OpMin)
			smax = comm.AllreduceF64Scalar(smax, mpirt.OpMax)
			cam := render.FitBox(render.Vec3{X: lo[0], Y: lo[1], Z: lo[2]}, render.Vec3{X: hi[0], Y: hi[1], Z: hi[2]},
				render.Vec3{X: p.CameraDir[0], Y: p.CameraDir[1], Z: p.CameraDir[2]})
			fb := render.NewFramebuffer(p.Width, p.Height)
			draw += timeMedian(probeReps, func() {
				fb.Clear([4]uint8{0, 0, 0, 255})
				render.Draw(fb, cam, soup, render.ColormapByName(p.Colormap), smin, smax, render.DefaultLight())
			})
			drawn += soup.NumTriangles()

			var final *render.Framebuffer
			comm.Barrier()
			before := readMem()
			composite += timeMedian(probeReps, func() { final = render.Composite(comm, fb, 0) })
			comm.Barrier()
			if rank == 0 {
				compositeAlloc += memBetween(before, readMem()).bytes / probeReps
				encode += timeMedian(probeReps, func() { _, ferr = render.EncodePNG(io.Discard, final) })
				if ferr != nil {
					return ferr
				}
			}
			comm.Barrier()
		}
		mu.Lock()
		triangles += drawn
		mu.Unlock()
		comm.Barrier()
		if rank == 0 {
			images := float64(len(pipelines))
			into["isosurf.slice_ms"] = ms(filter[0])
			into["isosurf.contour_ms"] = ms(filter[1])
			into["isosurf.triangles_per_image"] = float64(triangles) / images
			into["render.draw_ms"] = ms(draw) / images
			if draw > 0 {
				into["render.draw_mtri_per_s"] = float64(drawn) / 1e6 / draw.Seconds()
			}
			into["render.composite_ms"] = ms(composite) / images
			into["render.composite_alloc_mb"] = float64(compositeAlloc) / 1e6 / images
			into["render.png_ms"] = ms(encode) / images
		}
		return nil
	})
}

// probeAdios times the frame codec of the wire on the captured
// steady-state step: marshal, decode-into-reuse, header scan, and the
// 2 -> 1 splice of the two ranks' frames.
func probeAdios(cap *captured, into map[string]float64) error {
	pool := adios.NewFramePool()
	var frames [][]byte
	var total int64
	for _, s := range cap.steps {
		frames = append(frames, adios.Marshal(s[1]))
		total += int64(len(frames[len(frames)-1]))
	}
	step, frame := cap.steps[0][1], frames[0]
	marshal := timeMedian(probeReps, func() { adios.MarshalFrame(step, pool).Release() })
	var reuse adios.Step
	var err error
	unmarshal := timeMedian(probeReps, func() {
		if uerr := adios.UnmarshalInto(frame, &reuse); uerr != nil {
			err = uerr
		}
	})
	scan := timeMedian(probeReps, func() {
		for i := 0; i < 100; i++ {
			if _, serr := adios.ScanFrame(frame); serr != nil {
				err = serr
			}
		}
	})
	splice := timeMedian(probeReps, func() {
		f, serr := adios.SpliceFrames(frames, pool)
		if serr != nil {
			err = serr
			return
		}
		f.Release()
	})
	if err != nil {
		return err
	}
	into["adios.marshal_mb_per_s"] = mbPerSecond(int64(len(frame)), marshal)
	into["adios.unmarshal_mb_per_s"] = mbPerSecond(int64(len(frame)), unmarshal)
	into["adios.scan_us"] = float64(scan.Nanoseconds()) / 1e3 / 100
	into["adios.splice_mb_per_s"] = mbPerSecond(total, splice)
	into["adios.frame_bytes_per_step"] = float64(total)
	return nil
}

// probeCodec times each wire codec's encode and decode over the five
// arrays of rank 0's captured step (temporal-delta against the step
// before it) and reports raw bytes over encoded bytes.
func probeCodec(cap *captured, into map[string]float64) {
	prev, cur := cap.steps[0][0], cap.steps[0][1]
	var sc codec.Scratch
	type coder struct {
		encode func(dst []byte, src, base []float64) []byte
		decode func(dst, base []float64, enc []byte) error
	}
	coders := map[string]coder{
		"transpose-delta": {
			func(dst []byte, src, _ []float64) []byte { return codec.AppendTransposeDelta(dst, src, &sc) },
			func(dst, _ []float64, enc []byte) error { return codec.DecodeTransposeDelta(dst, enc, &sc) }},
		"temporal-delta": {
			func(dst []byte, src, base []float64) []byte { return codec.AppendTemporalDelta(dst, src, base, &sc) },
			func(dst, base []float64, enc []byte) error { return codec.DecodeTemporalDelta(dst, base, enc, &sc) }},
		"quantize": {
			func(dst []byte, src, _ []float64) []byte { return codec.AppendQuantize(dst, src, quantizeBound, &sc) },
			func(dst, _ []float64, enc []byte) error { return codec.DecodeQuantize(dst, quantizeBound, enc, &sc) }},
	}
	for _, name := range codecNames {
		c := coders[name]
		var raw, encoded int64
		var encode, decode time.Duration
		for _, array := range solverArrays {
			src := cur.FindVar("array/" + array).F64
			base := prev.FindVar("array/" + array).F64
			var enc []byte
			encode += timeMedian(probeReps, func() { enc = c.encode(enc[:0], src, base) })
			dst := make([]float64, len(src))
			decode += timeMedian(probeReps, func() { _ = c.decode(dst, base, enc) }) // round trips are the codec tests' job
			raw += int64(8 * len(src))
			encoded += int64(len(enc))
		}
		into["codec.encode_mb_per_s."+name] = mbPerSecond(raw, encode)
		into["codec.decode_mb_per_s."+name] = mbPerSecond(raw, decode)
		into["codec.ratio."+name] = float64(raw) / float64(max(encoded, 1))
	}
}

// probeStaging times the hub alone: an in-process publish to a block
// consumer, then the same steps served over loopback TCP to a reader.
func probeStaging(cap *captured, into map[string]float64) error {
	step := cap.steps[0][1]
	const steps = 40
	hub := staging.NewHub(nil)
	cons, err := hub.Subscribe("probe", staging.Block, 2)
	if err != nil {
		return err
	}
	publish := make([]float64, 0, steps)
	begin := time.Now()
	for i := 0; i < steps; i++ {
		s := *step
		s.Step = int64(i + 1)
		t := time.Now()
		if err := hub.Publish(&s); err != nil {
			return err
		}
		publish = append(publish, float64(time.Since(t)))
		ref, err := cons.Next()
		if err != nil {
			return err
		}
		ref.Release()
	}
	inProcess := time.Since(begin)
	if err := hub.Close(); err != nil {
		return err
	}
	into["staging.publish_us"] = median(publish) / 1e3
	into["staging.hub_steps_per_s"] = steps / inProcess.Seconds()

	hub = staging.NewHub(nil)
	srv, err := staging.Serve(hub, "127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	r, err := adios.OpenReaderWith(srv.Addr(), adios.ReaderOptions{Consumer: "probe", Policy: "block"})
	if err != nil {
		hub.Close()
		return err
	}
	defer r.Close()
	pubErr := make(chan error, 1)
	begin = time.Now()
	go func() {
		var err error
		for i := 0; i < steps && err == nil; i++ {
			s := *step
			s.Step = int64(i + 1)
			err = hub.Publish(&s)
		}
		if cerr := hub.Close(); err == nil {
			err = cerr
		}
		pubErr <- err
	}()
	received := 0
	for {
		s, err := r.BeginStep()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			<-pubErr
			return err
		}
		received++
		r.Recycle(s)
	}
	wire := time.Since(begin)
	if err := <-pubErr; err != nil {
		return err
	}
	if received != steps {
		return fmt.Errorf("tcp loopback delivered %d of %d steps", received, steps)
	}
	into["staging.tcp_mb_per_s"] = mbPerSecond(r.BytesReceived(), wire)
	return nil
}

// probeIntransit times the endpoint-side merge: ingest both ranks'
// blocks of a steady-state step and seal.
func probeIntransit(cap *captured, into map[string]float64) error {
	da := intransit.NewStreamDataAdaptor(mpirt.NewWorld(1).Comm(0), len(cap.steps))
	da.SetStorageReuse(true)
	round := func(i int) error {
		for src, s := range cap.steps {
			if err := da.Ingest(src, s[i]); err != nil {
				return err
			}
		}
		if err := da.Seal(); err != nil {
			return err
		}
		return da.ReleaseData()
	}
	if err := round(0); err != nil { // the structure step, once per stream
		return err
	}
	var err error
	d := timeMedian(probeReps, func() {
		if rerr := round(1); rerr != nil {
			err = rerr
		}
	})
	into["intransit.ingest_seal_ms"] = ms(d)
	return err
}

// probeArchive appends the captured frames to a fresh archive and
// reads them back whole and as a one-array subset.
func probeArchive(cfg *runConfig, cap *captured, into map[string]float64) error {
	dir, err := os.MkdirTemp(cfg.scratch, "archive-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	a, err := archive.Open(dir, archive.Options{})
	if err != nil {
		return err
	}
	defer a.Close()
	if _, err := a.AppendStep(cap.steps[0][0], adios.NewFramePool()); err != nil {
		return err
	}
	frame := adios.Marshal(cap.steps[0][1])
	const records = 8
	var ids []int64
	begin := time.Now()
	for i := 0; i < records; i++ {
		id, err := a.AppendFrame(frame)
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	if err := a.Sync(); err != nil {
		return err
	}
	appendTime := time.Since(begin)
	var buf []byte
	var whole, subset int64
	begin = time.Now()
	for _, id := range ids {
		if buf, err = a.ReadFrameInto(id, buf); err != nil {
			return err
		}
		whole += int64(len(buf))
	}
	readTime := time.Since(begin)
	begin = time.Now()
	for _, id := range ids {
		if buf, err = a.ReadSubsetFrameInto(id, []string{"pressure"}, buf); err != nil {
			return err
		}
		subset += int64(len(buf))
	}
	subsetTime := time.Since(begin)
	into["archive.append_mb_per_s"] = mbPerSecond(int64(records*len(frame)), appendTime)
	into["archive.read_mb_per_s"] = mbPerSecond(whole, readTime)
	into["archive.subset_read_mb_per_s"] = mbPerSecond(subset, subsetTime)
	return nil
}
