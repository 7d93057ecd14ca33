//go:build linux

package xblas

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"syscall"
	"testing"
	"unsafe"
)

// TestPackUpdateBGuardPage ends B at the last byte before a page the process
// may not touch, so a strip pack at any level that reads one element past the
// last one a strip needs — a full-width load where a partial strip's masked
// one belongs — faults instead of passing unseen inside the slice's capacity.
func TestPackUpdateBGuardPage(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	all := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), page/8)
	forEachLevel(t, func(t *testing.T) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		rng := rand.New(rand.NewSource(67))
		var pk Packs
		for _, k := range []int{1, 3, 16} {
			for n := 1; n <= 2*nr+1; n++ {
				ldb := n + rng.Intn(3)
				b := all[len(all)-(k-1)*ldb-n:]
				for i := range b {
					b[i] = 2*rng.Float64() - 1
				}
				for j := 0; j < n; j++ {
					if rng.Intn(3) == 0 {
						for l := 0; l < k; l++ {
							b[l*ldb+j] = 0
						}
					}
				}
				img, starts, skip := refPackB(b, ldb, k, n)
				pk.packUpdateB(b, ldb, k, n)
				if pk.skip != skip || !slices.Equal(pk.starts, starts) || !bitEqual(img, pk.b[:len(img)]) {
					t.Fatalf("k=%d n=%d ldb=%d: packed image differs from the reference", k, n, ldb)
				}
			}
		}
	})
}
