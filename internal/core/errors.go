package core

import "errors"

// ErrSingular reports a numerically singular matrix: some pivot search found
// no nonzero candidate, or a value of the matrix is a NaN or an infinity. Every factorization path — the sequential S* kernels,
// the host-parallel executor, the virtual-machine 1D/2D codes, the dense
// fallback, and the Gilbert–Peierls reference — wraps this sentinel, so
// callers can test errors.Is(err, core.ErrSingular) without parsing messages.
// The root package re-exports it as sstar.ErrSingular.
var ErrSingular = errors.New("core: matrix is numerically singular")
