package sstar

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"sstar/internal/core"
	"sstar/internal/sparse"
)

// Analysis is the reusable result of the analyze phase: the preprocessing
// permutations, the George–Ng static symbolic structure and the 2D L/U
// supernode partition. Every step depends only on the nonzero *pattern* of
// the matrix — and the static structure bounds the fill of every possible
// partial-pivoting interchange sequence — so one Analysis is valid for any
// matrix sharing the pattern, whatever its values. It is immutable after
// construction and safe to share across concurrent FactorizeWith calls.
type Analysis struct {
	sym  *core.Symbolic
	opts Options
	pat  *sparse.Pattern
	key  uint64

	// sketch is the lazily computed pattern fingerprint of Sketch (the
	// near-miss cache lookup key); once-guarded so concurrent readers of a
	// shared Analysis stay safe.
	sketchOnce sync.Once
	sketch     PatternSketch
}

// Analyze runs the analyze phase alone, for callers that factorize many
// matrices with one pattern (time stepping, Newton iterations, a solver
// service): pay for ordering + symbolic factorization + partitioning once,
// then FactorizeWith each numeric instance.
func Analyze(a *Matrix, o Options) (*Analysis, error) {
	if err := validate(a, o); err != nil {
		return nil, err
	}
	return &Analysis{
		sym:  o.analyze(a),
		opts: o,
		pat:  sparse.PatternOf(a),
		key:  StructureKey(a, o),
	}, nil
}

// FactorizeWith numerically factorizes a, which must have exactly the
// nonzero pattern the Analysis was computed from. The error path (not a
// panic) makes it safe to feed untrusted matrices: a pattern mismatch is
// reported before any numeric work starts.
func (an *Analysis) FactorizeWith(a *Matrix) (*Factorization, error) {
	if a == nil {
		return nil, fmt.Errorf("sstar: FactorizeWith: nil matrix")
	}
	if a.N != an.pat.N || a.M != an.pat.N {
		return nil, fmt.Errorf("sstar: FactorizeWith: matrix is %dx%d, analysis is for order %d", a.N, a.M, an.pat.N)
	}
	if !an.pat.EqualCSR(a) {
		return nil, fmt.Errorf("sstar: FactorizeWith: matrix pattern differs from the analyzed pattern (%d vs %d nonzeros)", a.Nnz(), an.pat.Nnz())
	}
	if len(a.Val) != len(a.ColInd) {
		return nil, fmt.Errorf("sstar: FactorizeWith: %d values for %d nonzeros", len(a.Val), len(a.ColInd))
	}
	fact, err := core.FactorizeHostObs(a, an.sym, an.sym.HostWorkers(an.opts.HostWorkers), sinkFor(an.opts.Observer))
	if err != nil {
		return nil, err
	}
	return &Factorization{
		sym: an.sym, fact: fact,
		hostWorkers: an.opts.HostWorkers,
		observer:    an.opts.Observer,
		patHash:     patternHash(a), patNnz: a.Nnz(),
	}, nil
}

// N returns the matrix order the analysis was computed for.
func (an *Analysis) N() int { return an.pat.N }

// Key returns the structure key of the analyzed (pattern, options) pair,
// the value StructureKey reports for any matching matrix.
func (an *Analysis) Key() uint64 { return an.key }

// Options returns the options the analysis was computed with.
func (an *Analysis) Options() Options { return an.opts }

// Matches reports whether a has exactly the analyzed pattern, i.e. whether
// FactorizeWith would accept it.
func (an *Analysis) Matches(a *Matrix) bool { return a != nil && an.pat.EqualCSR(a) }

// patternHash returns a 64-bit FNV-1a hash of the nonzero structure of a:
// the order, the row pointers and the column indices, each as 8
// little-endian bytes (hash/fnv's New64a over that stream, without the
// interface calls). Values are excluded — two matrices with the same pattern
// hash identically.
func patternHash(a *Matrix) uint64 {
	h := fnvWord(fnvWord(fnvOffset64, a.N), a.M)
	for _, p := range a.RowPtr {
		h = fnvWord(h, p)
	}
	for _, j := range a.ColInd {
		h = fnvWord(h, j)
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds the 8 little-endian bytes of x into the FNV-1a state h.
func fnvWord(h uint64, x int) uint64 {
	u := uint64(x)
	for range 8 {
		h = (h ^ u&0xff) * fnvPrime64
		u >>= 8
	}
	return h
}

// StructureKey returns a 64-bit key identifying the (nonzero pattern,
// analysis options) pair of a. Matrices that differ only in values map to
// the same key, which is what makes it the right cache key for an Analysis:
// per the paper's pivot-independence property the analyze phase is a pure
// function of the pattern, so a cached Analysis under this key serves every
// matrix that hashes to it (after an exact pattern check to rule out the
// astronomically unlikely collision). Options that cannot change the
// analysis or the factors (HostWorkers: the parallel factors are
// bit-identical to sequential; Observer: observation never changes numeric
// results) are deliberately excluded, so one cached Analysis serves
// requests at any parallelism or observation level.
func StructureKey(a *Matrix, o Options) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(patternHash(a))
	put(uint64(int64(o.BlockSize)))
	put(uint64(int64(o.Amalgamate)))
	if o.SkipOrdering {
		put(1)
	} else {
		put(0)
	}
	put(math.Float64bits(o.PivotThreshold))
	return h.Sum64()
}
