package sstar

import (
	"io"

	"sstar/internal/sparse"
)

// GenOptions re-exports the synthetic generator controls for the public API.
type GenOptions = sparse.GenOptions

// GenGrid2D generates the matrix of a 5-point (or 9-point) stencil on an
// nx-by-ny grid — the reservoir/CFD matrix family of the benchmark suite.
func GenGrid2D(nx, ny int, ninePoint bool, o GenOptions) *Matrix {
	return sparse.Grid2D(nx, ny, ninePoint, o)
}

// GenGrid3D generates a 7-point stencil matrix on an nx-by-ny-by-nz grid.
func GenGrid3D(nx, ny, nz int, o GenOptions) *Matrix {
	return sparse.Grid3D(nx, ny, nz, o)
}

// GenCircuit generates a circuit-simulation-like random matrix.
func GenCircuit(n, avgDeg int, o GenOptions) *Matrix {
	return sparse.Circuit(n, avgDeg, o)
}

// GenPerturbLocal returns a structural near-miss of a: up to add inserted
// off-diagonal entries and up to del deleted ones (diagonals and last
// entries of a row or column are never deleted, so the result stays
// structurally nonsingular), deterministic in seed. The insertions preserve
// structure: new entries land on length-2 paths of the structure graph
// (nodes already coupled through a neighbor), the churn shape of a
// simulation service editing devices rather than rewiring the whole
// circuit. Local insertions keep the incremental re-analysis cone small,
// where uniform random ones scatter it. This is the service benchmark's
// model of pattern churn — the workload Analysis.Patch exists for.
func GenPerturbLocal(a *Matrix, add, del int, seed int64) *Matrix {
	return sparse.PerturbLocal(a, add, del, seed)
}

// ReadMatrixMarket parses a Matrix Market coordinate stream.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return sparse.ReadMatrixMarket(r) }

// ReadHarwellBoeing parses a Harwell–Boeing (RUA/RSA/PUA/...) stream — the
// exchange format of the paper's original benchmark matrices.
func ReadHarwellBoeing(r io.Reader) (*Matrix, error) { return sparse.ReadHarwellBoeing(r) }

// WriteMatrixMarket writes a in Matrix Market coordinate format.
func WriteMatrixMarket(w io.Writer, a *Matrix) error { return sparse.WriteMatrixMarket(w, a) }
