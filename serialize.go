package sstar

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

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
	frameSlab    byte = 0x56 // 'V': the values stream's raw slab

	valuesMagic = "sstar-lu-values"
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

// valuesMeta is the gob section of a values stream: everything a refactorize
// changes besides the slab, and the pattern fingerprint that names the
// structure the values belong to.
type valuesMeta struct {
	PatHash uint64
	PatNnz  int
	Piv     []int32
	Fl      core.Flops
}

// SaveValues writes what a Refactorize changes and nothing it keeps: the
// pivot sequence, the flop counts and the value slab, with the pattern
// fingerprint. The symbolic structure stays behind, so the stream is only
// readable by LoadValues on a factorization of the same pattern and
// structure. It is a header frame, one gob section and the slab as one raw
// frame of little-endian float64s, each CRC-checked like Save's; Load refuses
// it as not a factorization stream.
func (f *Factorization) SaveValues(w io.Writer) error {
	if err := wire.WriteGob(w, frameHeader, serialHeader{Magic: valuesMagic, Version: serialVersion}); err != nil {
		return fmt.Errorf("sstar: save values header: %w", err)
	}
	meta := valuesMeta{PatHash: f.patHash, PatNnz: f.patNnz, Piv: f.fact.Piv, Fl: f.fact.Fl}
	if err := wire.WriteGob(w, frameSection, meta); err != nil {
		return fmt.Errorf("sstar: save pivots: %w", err)
	}
	vals := f.fact.BM.Values()
	raw := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	if err := wire.WriteFrame(w, frameSlab, raw); err != nil {
		return fmt.Errorf("sstar: save values: %w", err)
	}
	return nil
}

// LoadValues reads a stream written by SaveValues and returns a new
// factorization that shares f's symbolic structure and block layout and
// holds the stream's factors: it solves bit-identically to Load of a Save
// taken where the stream was. f itself is not modified, so solves on it may
// run meanwhile. A stream of another pattern or another slab length is
// refused, and so is corrupt input of any kind; LoadValues never panics.
func (f *Factorization) LoadValues(r io.Reader) (*Factorization, error) {
	var h serialHeader
	if err := wire.ReadGob(r, frameHeader, 1<<16, &h); err != nil {
		return nil, fmt.Errorf("sstar: load values header: %w", err)
	}
	if h.Magic != valuesMagic || h.Version != serialVersion {
		return nil, fmt.Errorf("sstar: not a values stream of format version %d", serialVersion)
	}
	var meta valuesMeta
	if err := wire.ReadGob(r, frameSection, 0, &meta); err != nil {
		return nil, fmt.Errorf("sstar: load pivots: %w", err)
	}
	if meta.PatHash != f.patHash || meta.PatNnz != f.patNnz {
		return nil, fmt.Errorf("sstar: values stream is for another pattern (%d nonzeros)", meta.PatNnz)
	}
	if len(meta.Piv) != f.sym.N {
		return nil, fmt.Errorf("sstar: values stream has %d pivots, want %d", len(meta.Piv), f.sym.N)
	}
	typ, raw, err := wire.ReadFrame(r, 0)
	if err != nil {
		return nil, fmt.Errorf("sstar: load values: %w", err)
	}
	if typ != frameSlab || len(raw)%8 != 0 {
		return nil, fmt.Errorf("sstar: values stream has no value slab")
	}
	vals := make([]float64, len(raw)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	bm, err := f.fact.BM.WithValues(vals)
	if err != nil {
		return nil, fmt.Errorf("sstar: load values: %w", err)
	}
	return &Factorization{
		sym:         f.sym,
		fact:        &core.Factorization{Sym: f.sym, BM: bm, Piv: meta.Piv, Fl: meta.Fl},
		hostWorkers: f.hostWorkers,
		observer:    f.observer,
		patHash:     f.patHash, patNnz: f.patNnz,
	}, nil
}
