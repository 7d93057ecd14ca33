package sstar

import (
	"fmt"
	"io"

	"sstar/internal/core"
	"sstar/internal/sparse"
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

	analysisMagic   = "sstar-an"
	analysisVersion = 1

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

// analysisHeaderSections carries everything an Analysis holds beyond the
// gob-heavy symbolic structure: the options it was computed with and the
// analyzed pattern (CSR, no values).
type analysisMeta struct {
	Opts Options
	N    int
	Ptr  []int
	Ind  []int
	Key  uint64
}

// Save writes the complete analysis (options, analyzed pattern, symbolic
// structure) to w in a self-contained binary format, so an expensive analyze
// phase can be computed once and shared across processes — the cluster
// replicates analysis-cache entries between shards through exactly this
// format. The Observer option is a local-process hook and is not serialized.
func (an *Analysis) Save(w io.Writer) error {
	if err := wire.WriteGob(w, frameHeader, serialHeader{Magic: analysisMagic, Version: analysisVersion}); err != nil {
		return fmt.Errorf("sstar: save analysis header: %w", err)
	}
	opts := an.opts
	opts.Observer = nil
	meta := analysisMeta{Opts: opts, N: an.pat.N, Ptr: an.pat.Ptr, Ind: an.pat.Ind, Key: an.key}
	if err := wire.WriteGob(w, frameSection, meta); err != nil {
		return fmt.Errorf("sstar: save analysis meta: %w", err)
	}
	if err := wire.WriteGob(w, frameSection, an.sym); err != nil {
		return fmt.Errorf("sstar: save analysis symbolic: %w", err)
	}
	return nil
}

// LoadAnalysis reads an analysis previously written by Analysis.Save. The
// result behaves exactly like a freshly computed Analysis: FactorizeWith
// produces bit-identical factors, Matches verifies patterns, Key reports the
// structure key. Corrupt input of any kind returns an error, never a panic.
func LoadAnalysis(r io.Reader) (*Analysis, error) {
	var h serialHeader
	if err := wire.ReadGob(r, frameHeader, 1<<16, &h); err != nil {
		return nil, fmt.Errorf("sstar: load analysis header: %w", err)
	}
	if h.Magic != analysisMagic {
		return nil, fmt.Errorf("sstar: not an analysis stream")
	}
	if h.Version != analysisVersion {
		return nil, fmt.Errorf("sstar: unsupported analysis format version %d", h.Version)
	}
	var meta analysisMeta
	if err := wire.ReadGob(r, frameSection, 0, &meta); err != nil {
		return nil, fmt.Errorf("sstar: load analysis meta: %w", err)
	}
	var sym core.Symbolic
	if err := wire.ReadGob(r, frameSection, 0, &sym); err != nil {
		return nil, fmt.Errorf("sstar: load analysis symbolic: %w", err)
	}
	if meta.N <= 0 || len(meta.Ptr) != meta.N+1 || sym.N != meta.N || sym.Partition == nil || sym.Static == nil {
		return nil, fmt.Errorf("sstar: analysis stream is incomplete")
	}
	return &Analysis{
		sym:  &sym,
		opts: meta.Opts,
		pat:  &sparse.Pattern{N: meta.N, Ptr: meta.Ptr, Ind: meta.Ind},
		key:  meta.Key,
	}, nil
}
