package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/vtkdata"
)

// VTUCheckpoint is a SENSEI analysis adaptor that writes each
// trigger's data as one VTU piece per rank plus a PVTU master on rank
// 0 — the paper's in transit "Checkpointing" measurement point, where
// the SENSEI endpoint writes the pressure and velocity fields to the
// storage system as VTU files. Registered as analysis type
// "checkpoint" with attributes mesh, arrays (comma-separated; empty =
// all advertised arrays) and prefix.
type VTUCheckpoint struct {
	ctx      *sensei.Context
	meshName string
	arrays   []string
	prefix   string

	filesWritten int
	collection   []vtkdata.PVDEntry // rank 0: timestep index for the .pvd
}

// NewVTUCheckpoint constructs the adaptor programmatically.
func NewVTUCheckpoint(ctx *sensei.Context, meshName string, arrays []string, prefix string) *VTUCheckpoint {
	if meshName == "" {
		meshName = "mesh"
	}
	if prefix == "" {
		prefix = "checkpoint"
	}
	return &VTUCheckpoint{ctx: ctx, meshName: meshName, arrays: arrays, prefix: prefix}
}

func init() {
	sensei.Register("checkpoint", func(ctx *sensei.Context, attrs map[string]string) (sensei.Analysis, error) {
		if err := sensei.CheckAttrs("checkpoint", attrs, "mesh", "arrays", "prefix"); err != nil {
			return nil, err
		}
		var arrays []string
		if a := strings.TrimSpace(attrs["arrays"]); a != "" {
			for _, s := range strings.Split(a, ",") {
				arrays = append(arrays, strings.TrimSpace(s))
			}
		}
		return NewVTUCheckpoint(ctx, attrs["mesh"], arrays, attrs["prefix"]), nil
	})
}

// FilesWritten reports how many files this rank wrote.
func (c *VTUCheckpoint) FilesWritten() int { return c.filesWritten }

// Describe implements sensei.Analysis: the configured arrays, or every
// advertised array when none were configured.
func (c *VTUCheckpoint) Describe() sensei.Requirements {
	if len(c.arrays) == 0 {
		return sensei.RequireAllArrays(c.meshName)
	}
	return sensei.RequireArrays(c.meshName, sensei.AssocPoint, c.arrays...)
}

// Execute implements sensei.Analysis. The written grid carries exactly
// this adaptor's declared arrays — a subset head of the shared step,
// so arrays other analyses declared never leak into the checkpoint.
func (c *VTUCheckpoint) Execute(st *sensei.Step) (bool, error) {
	arrays := c.arrays
	if len(arrays) == 0 {
		md, err := st.Metadata(c.meshName)
		if err != nil {
			return false, err
		}
		arrays = md.ArrayNames
	}
	g, err := st.MeshSubset(c.meshName, arrays)
	if err != nil {
		return false, err
	}
	dir := c.ctx.OutputDir
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	rank := c.ctx.Comm.Rank()
	step := st.TimeStep()
	pieceName := func(r int) string {
		return fmt.Sprintf("%s_%06d_r%04d.vtu", c.prefix, step, r)
	}
	f, err := os.Create(filepath.Join(dir, pieceName(rank)))
	if err != nil {
		return false, err
	}
	n, err := vtkdata.WriteVTU(f, g)
	f.Close()
	if err != nil {
		return false, err
	}
	c.ctx.Storage.AddFile(n)
	c.filesWritten++

	if rank == 0 {
		sources := make([]string, c.ctx.Comm.Size())
		for r := range sources {
			sources[r] = pieceName(r)
		}
		master := fmt.Sprintf("%s_%06d.pvtu", c.prefix, step)
		mf, err := os.Create(filepath.Join(dir, master))
		if err != nil {
			return false, err
		}
		n, err := vtkdata.WritePVTU(mf, g, sources)
		mf.Close()
		if err != nil {
			return false, err
		}
		c.ctx.Storage.AddFile(n)
		c.filesWritten++
		c.collection = append(c.collection, vtkdata.PVDEntry{Time: st.Time(), File: master})
	}
	// Ranks must not race ahead of the master file on shared storage.
	c.ctx.Comm.Barrier()
	return false, nil
}

// Finalize implements sensei.Analysis: rank 0 writes the
// ParaView .pvd collection indexing the checkpoint series.
func (c *VTUCheckpoint) Finalize() error {
	if len(c.collection) == 0 {
		return nil
	}
	dir := c.ctx.OutputDir
	if dir == "" {
		dir = "."
	}
	f, err := os.Create(filepath.Join(dir, c.prefix+".pvd"))
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := vtkdata.WritePVD(f, c.collection)
	if err != nil {
		return err
	}
	c.ctx.Storage.AddFile(n)
	c.filesWritten++
	return nil
}
