package sstar

import (
	"fmt"
	"io"

	"sstar/internal/core"
	"sstar/internal/supernode"
	"sstar/internal/wire"
)

// The on-disk format is a sequence of internal/wire frames (length-prefixed,
// CRC-32-checked gob payloads): one header frame identifying the format,
// then one section frame per component. The checksums make Load fail
// cleanly — never panic, never return silently corrupt factors — on any
// truncated or bit-flipped stream.
const (
	serialMagic   = "sstar-lu"
	serialVersion = 3 // v3: factors are the value slab alone; the block structure is rebuilt from the partition

	frameHeader  byte = 0x48 // 'H'
	frameSection byte = 0x53 // 'S'
)

type serialHeader struct {
	Magic   string
	Version int
}

// serialTrailer carries the pattern fingerprint so a loaded factorization
// keeps rejecting mismatched-pattern Refactorize calls.
type serialTrailer struct {
	PatHash uint64
	PatNnz  int
}

// Save writes the complete factorization (symbolic analysis, numeric factors
// and pivot sequence) to w in a self-contained binary format, so an expensive
// factorization can be computed once and reused across processes.
func (f *Factorization) Save(w io.Writer) error {
	if err := wire.WriteGob(w, frameHeader, serialHeader{Magic: serialMagic, Version: serialVersion}); err != nil {
		return fmt.Errorf("sstar: save header: %w", err)
	}
	sections := []struct {
		name string
		v    any
	}{
		{"symbolic", f.sym},
		{"factors", f.fact.BM.Values()},
		{"pivots", f.fact.Piv},
		{"flop counts", f.fact.Fl},
		{"trailer", serialTrailer{PatHash: f.patHash, PatNnz: f.patNnz}},
	}
	for _, s := range sections {
		if err := wire.WriteGob(w, frameSection, s.v); err != nil {
			return fmt.Errorf("sstar: save %s: %w", s.name, err)
		}
	}
	return nil
}

// Load reads a factorization previously written by Save. The result supports
// every solve variant (Solve, SolveMany, SolveDistributed) and
// Refactorize with same-pattern matrices. Corrupt input of any kind —
// truncation, flipped bits, wrong format — returns an error; Load never
// panics.
func Load(r io.Reader) (*Factorization, error) {
	var h serialHeader
	if err := wire.ReadGob(r, frameHeader, 1<<16, &h); err != nil {
		return nil, fmt.Errorf("sstar: load header: %w", err)
	}
	if h.Magic != serialMagic {
		return nil, fmt.Errorf("sstar: not a factorization stream")
	}
	if h.Version != serialVersion {
		return nil, fmt.Errorf("sstar: unsupported format version %d", h.Version)
	}
	fact := &core.Factorization{}
	var sym core.Symbolic
	var vals []float64
	var tr serialTrailer
	sections := []struct {
		name string
		v    any
	}{
		{"symbolic", &sym},
		{"factors", &vals},
		{"pivots", &fact.Piv},
		{"flop counts", &fact.Fl},
		{"trailer", &tr},
	}
	for _, s := range sections {
		if err := wire.ReadGob(r, frameSection, 0, s.v); err != nil {
			return nil, fmt.Errorf("sstar: load %s: %w", s.name, err)
		}
	}
	if sym.N <= 0 || sym.Partition == nil || sym.Static == nil || sym.Partition.N != sym.N ||
		len(sym.RowPerm) != sym.N || len(sym.ColPerm) != sym.N || len(fact.Piv) != sym.N {
		return nil, fmt.Errorf("sstar: factorization stream is incomplete")
	}
	bm, err := supernode.LoadBlockMatrix(sym.Partition, vals)
	if err != nil {
		return nil, fmt.Errorf("sstar: load factors: %w", err)
	}
	fact.Sym, fact.BM = &sym, bm
	return &Factorization{sym: &sym, fact: fact, patHash: tr.PatHash, patNnz: tr.PatNnz}, nil
}
