// Package mem models the globally shared, physically distributed address
// space of a CC-NUMA machine: a 64-bit address space carved into
// cache-block-sized units, each with a *home node* that holds its backing
// memory and (on the target machine) its directory entry.
//
// Applications allocate named arrays with a placement policy; the
// resulting Array hands out addresses that the machine models consume.
// No data values are stored here — the simulator is execution-driven at
// the *reference* level, as SPASM was: application data lives in ordinary
// Go memory, while this package supplies the addresses those references
// would touch.
package mem

import (
	"fmt"
	"sort"
)

// Addr is a byte address in the simulated shared address space.
type Addr uint64

// Block identifies a cache-block-sized unit of the address space.
type Block uint64

// DefaultBlockBytes is the cache block size fixed by the paper's
// architectural characterization (32-byte blocks, 4 double words).
const DefaultBlockBytes = 32

// Policy describes how an array's blocks are assigned home nodes.
type Policy int

const (
	// Blocked splits the array into P contiguous chunks; chunk i is
	// homed at (and local to) node i.  This is the natural layout for
	// the data-parallel applications in the study, where each
	// processor's partition fits in its local memory.
	Blocked Policy = iota
	// Interleaved assigns consecutive blocks round-robin across nodes,
	// spreading hot-spot structures.
	Interleaved
	// Fixed homes the whole array at a single node (lock words, shared
	// counters, task-queue heads).
	Fixed
)

func (p Policy) String() string {
	switch p {
	case Blocked:
		return "blocked"
	case Interleaved:
		return "interleaved"
	case Fixed:
		return "fixed"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Space is a shared address space distributed across P home nodes.
type Space struct {
	p          int
	blockBytes int
	blockShift uint
	next       Addr
	regions    []*Array

	// homes memoizes the home node per block (-1: not yet computed).
	// Every block belongs to exactly one home — arrays are block-aligned
	// and Blocked chunks are padded to block boundaries — so the memo is
	// sound, and it takes the binary search over regions off the
	// per-reference hot path of the cache-less machine models.
	homes []int16
}

// NewSpace returns an empty address space distributed over p nodes with
// the given cache-block size (which must be a power of two).
func NewSpace(p, blockBytes int) *Space {
	if p < 1 {
		panic("mem: NewSpace with p < 1")
	}
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		panic(fmt.Sprintf("mem: block size %d not a power of two", blockBytes))
	}
	shift := uint(0)
	for 1<<shift != blockBytes {
		shift++
	}
	return &Space{p: p, blockBytes: blockBytes, blockShift: shift}
}

// Reset returns the space to its post-NewSpace(p, blockBytes) state while
// keeping the backing arrays of the region list and the per-block home
// memo, so a pooled space re-runs an application setup without
// reallocating them.  Retained region slots are cleared (no stale *Array
// stays reachable) and the home memo is re-stamped to -1 over its full
// length: the memo is a pure function of the region list, so a re-stamped
// memo recomputes exactly the values a fresh space would.
func (s *Space) Reset(p, blockBytes int) {
	if p < 1 {
		panic("mem: Reset with p < 1")
	}
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		panic(fmt.Sprintf("mem: block size %d not a power of two", blockBytes))
	}
	shift := uint(0)
	for 1<<shift != blockBytes {
		shift++
	}
	s.p = p
	s.blockBytes = blockBytes
	s.blockShift = shift
	s.next = 0
	for i := range s.regions {
		s.regions[i] = nil
	}
	s.regions = s.regions[:0]
	for i := range s.homes {
		s.homes[i] = -1
	}
}

// P returns the number of home nodes.
func (s *Space) P() int { return s.p }

// BlockBytes returns the cache-block size of the space.
func (s *Space) BlockBytes() int { return s.blockBytes }

// BlockOf returns the block containing addr.
func (s *Space) BlockOf(a Addr) Block { return Block(a >> s.blockShift) }

// BlockBase returns the first address of block b.
func (s *Space) BlockBase(b Block) Addr { return Addr(b) << s.blockShift }

// Size returns the total allocated bytes.
func (s *Space) Size() Addr { return s.next }

// Alloc allocates a named array of n elements of elemSize bytes with the
// given placement policy (Blocked or Interleaved).  The base is
// block-aligned, and for Blocked placement each node's chunk is padded to
// a block boundary so no block ever spans two homes.
func (s *Space) Alloc(name string, n, elemSize int, policy Policy) *Array {
	if policy == Fixed {
		panic("mem: use AllocAt for Fixed placement")
	}
	return s.alloc(name, n, elemSize, policy, 0)
}

// AllocAt allocates a named array homed entirely at the given node.
func (s *Space) AllocAt(name string, n, elemSize, node int) *Array {
	if node < 0 || node >= s.p {
		panic(fmt.Sprintf("mem: AllocAt node %d out of range [0,%d)", node, s.p))
	}
	return s.alloc(name, n, elemSize, Fixed, node)
}

func (s *Space) alloc(name string, n, elemSize int, policy Policy, node int) *Array {
	if n < 0 || elemSize <= 0 {
		panic(fmt.Sprintf("mem: bad Alloc(%q, n=%d, elemSize=%d)", name, n, elemSize))
	}
	a := &Array{
		space:    s,
		Name:     name,
		Base:     s.next,
		N:        n,
		ElemSize: elemSize,
		Policy:   policy,
		Node:     node,
	}
	bytes := Addr(n) * Addr(elemSize)
	if policy == Blocked {
		// Pad each node's chunk to a block multiple so chunk
		// boundaries coincide with block boundaries.
		per := (bytes + Addr(s.p) - 1) / Addr(s.p)
		per = s.roundUp(per)
		a.chunk = per
		bytes = per * Addr(s.p)
	}
	a.Bytes = s.roundUp(bytes)
	s.next += a.Bytes
	s.regions = append(s.regions, a)
	return a
}

func (s *Space) roundUp(b Addr) Addr {
	mask := Addr(s.blockBytes - 1)
	return (b + mask) &^ mask
}

// Home returns the home node of addr.  It panics on an address outside
// any allocated region: referencing unallocated memory is always an
// application bug.  Results are memoized per block, so repeated
// references resolve with a single array load.
func (s *Space) Home(a Addr) int {
	b := int(a >> s.blockShift)
	if b < len(s.homes) {
		if h := s.homes[b]; h >= 0 {
			return int(h)
		}
	} else if a < s.next {
		// The memo table lags allocation; grow it to cover the space.
		grown := make([]int16, int(s.next>>s.blockShift)+1)
		copy(grown, s.homes)
		for i := len(s.homes); i < len(grown); i++ {
			grown[i] = -1
		}
		s.homes = grown
	}
	r := s.Region(a)
	if r == nil {
		panic(fmt.Sprintf("mem: Home of unallocated address %#x", uint64(a)))
	}
	h := r.home(a)
	if b < len(s.homes) && h <= 0x7fff {
		s.homes[b] = int16(h)
	}
	return h
}

// Region returns the array containing addr, or nil.
func (s *Space) Region(a Addr) *Array {
	i := sort.Search(len(s.regions), func(i int) bool {
		return s.regions[i].Base+s.regions[i].Bytes > a
	})
	if i < len(s.regions) && a >= s.regions[i].Base {
		return s.regions[i]
	}
	return nil
}

// Regions returns all allocated arrays in allocation (= address) order.
func (s *Space) Regions() []*Array { return s.regions }

// Array is a contiguous allocation in a Space.
type Array struct {
	space    *Space
	Name     string
	Base     Addr
	N        int
	ElemSize int
	Bytes    Addr
	Policy   Policy
	Node     int  // home node for Fixed placement
	chunk    Addr // bytes per node for Blocked placement
}

// At returns the address of element i.
func (a *Array) At(i int) Addr {
	if i < 0 || i >= a.N {
		panic(fmt.Sprintf("mem: %s[%d] out of range [0,%d)", a.Name, i, a.N))
	}
	return a.Base + Addr(i)*Addr(a.ElemSize)
}

// home computes the home node for an address within the array.
func (a *Array) home(addr Addr) int {
	off := addr - a.Base
	switch a.Policy {
	case Blocked:
		n := int(off / a.chunk)
		if n >= a.space.p {
			n = a.space.p - 1
		}
		return n
	case Interleaved:
		return int((off >> a.space.blockShift) % Addr(a.space.p))
	default: // Fixed
		return a.Node
	}
}

// HomeOf returns the home node of element i.
func (a *Array) HomeOf(i int) int { return a.home(a.At(i)) }

// OwnerRange returns the half-open element range [lo, hi) homed at node
// for a Blocked array: the elements that node's processor can touch
// without network traffic.  It panics for other policies.
func (a *Array) OwnerRange(node int) (lo, hi int) {
	if a.Policy != Blocked {
		panic("mem: OwnerRange on non-Blocked array " + a.Name)
	}
	loB := a.Base + Addr(node)*a.chunk
	hiB := loB + a.chunk
	lo = int((loB - a.Base + Addr(a.ElemSize) - 1) / Addr(a.ElemSize))
	hi = int((hiB - a.Base + Addr(a.ElemSize) - 1) / Addr(a.ElemSize))
	if hi > a.N {
		hi = a.N
	}
	if lo > a.N {
		lo = a.N
	}
	return lo, hi
}
