package condition

import (
	"slices"
	"sort"

	"kset/internal/vector"
)

// Compiled is the immutable form of an enumerated condition: a snapshot of
// an Explicit's member index plus per-member count and densest-mass tables
// that answer the mass queries of legality checking and recognizer search
// in O(|set|) instead of O(n). Compile an Explicit (or use
// CompileMax/CompileMin) once; every Contains/Recognize/Lookup probe is
// then one verified hash probe with no allocation.
//
// A Compiled condition shares nothing with the Explicit it was compiled
// from, and it cannot be modified. That immutability is what makes it safe
// to share across campaign workers without locks.
type Compiled struct {
	index

	vals []vector.Set // val(member k)

	// Per-member analysis tables: counts[k*(m+1)+v] = #_v(I_k), and
	// densest[dOff[k]+j] = the total mass of the j+1 most frequent values
	// of I_k (prefix sums of its value counts sorted descending).
	counts  []uint16
	densest []uint16
	dOff    []int32
}

var _ Indexed = (*Compiled)(nil)

// Compile builds the immutable compiled form of an explicit condition: a
// copy of its index (members keep their insertion order) plus the
// precomputed per-member tables. The result is a snapshot — vectors added
// to e afterwards are not reflected — taken as e stands: recognized sets
// are not re-validated, so a set installed by SetRecognized compiles and
// is Check's to report. kset.System compiles its explicit condition at
// construction, so campaign membership checks and member streaming ride
// the index.
func Compile(e *Explicit) *Compiled {
	c := &Compiled{index: e.index}
	c.flat = slices.Clone(e.flat)
	c.hs = slices.Clone(e.hs)
	c.slots = slices.Clone(e.slots)

	size := len(c.hs)
	c.vals = make([]vector.Set, size)
	c.counts = make([]uint16, size*(c.m+1))
	c.dOff = make([]int32, size+1)
	var desc []uint16
	for k := 0; k < size; k++ {
		i := c.MemberAt(k)
		c.vals[k] = i.Vals()
		row := c.counts[k*(c.m+1) : (k+1)*(c.m+1)]
		for _, v := range i {
			row[v]++
		}
		desc = desc[:0]
		for v := 1; v <= c.m; v++ {
			if row[v] > 0 {
				desc = append(desc, row[v])
			}
		}
		sort.Slice(desc, func(a, z int) bool { return desc[a] > desc[z] })
		c.dOff[k] = int32(len(c.densest))
		sum := uint16(0)
		for _, cnt := range desc {
			sum += cnt
			c.densest = append(c.densest, sum)
		}
	}
	c.dOff[size] = int32(len(c.densest))
	return c
}

// CompileMax materializes the max_ℓ-generated (x,ℓ)-legal condition of
// NewMax as a compiled condition by enumerating {1..m}^n — the
// analysis-side form used by the lattice builders, practical at small n
// and m only (the enumeration is m^n; the analytic MaxCondition remains
// the right form for protocol runs at scale).
func CompileMax(n, m, x, l int) (*Compiled, error) {
	if _, err := NewMax(n, m, x, l); err != nil {
		return nil, err
	}
	e := MustNewExplicit(n, m, l)
	vector.ForEach(n, m, func(i vector.Vector) bool {
		if top := i.TopL(l); i.MassOf(top) > x {
			e.MustAdd(i, top)
		}
		return true
	})
	return Compile(e), nil
}

// MustCompileMax is CompileMax that panics on error.
func MustCompileMax(n, m, x, l int) *Compiled {
	c, err := CompileMax(n, m, x, l)
	if err != nil {
		panic(err)
	}
	return c
}

// CompileMin is the min_ℓ twin of CompileMax: it materializes the
// min_ℓ-generated (x,ℓ)-legal condition of NewMin as a compiled condition.
func CompileMin(n, m, x, l int) (*Compiled, error) {
	if _, err := NewMin(n, m, x, l); err != nil {
		return nil, err
	}
	e := MustNewExplicit(n, m, l)
	vector.ForEach(n, m, func(i vector.Vector) bool {
		if bot := i.BottomL(l); i.MassOf(bot) > x {
			e.MustAdd(i, bot)
		}
		return true
	})
	return Compile(e), nil
}

// MustCompileMin is CompileMin that panics on error.
func MustCompileMin(n, m, x, l int) *Compiled {
	c, err := CompileMin(n, m, x, l)
	if err != nil {
		panic(err)
	}
	return c
}

// ValsAt returns val(MemberAt(k)) from the precomputed table.
func (c *Compiled) ValsAt(k int) vector.Set { return c.vals[k] }

// Count returns #_v(I_k) from the precomputed count table.
func (c *Compiled) Count(k int, v vector.Value) int {
	if v < 1 || int(v) > c.m {
		return 0
	}
	return int(c.counts[k*(c.m+1)+int(v)])
}

// Mass returns Σ_{v∈s} #_v(I_k) — the density/distance mass of member k
// against the value set s — in O(|s|) table lookups instead of an O(n)
// vector scan, with no allocation. Values of s beyond the condition's
// domain {1..m} contribute nothing (a set may hold values up to 64).
func (c *Compiled) Mass(k int, s vector.Set) int {
	row := c.counts[k*(c.m+1) : (k+1)*(c.m+1)]
	mass := 0
	s.ForEach(func(v vector.Value) bool {
		if int(v) <= c.m {
			mass += int(row[v])
		}
		return true
	})
	return mass
}

// DensestMass returns the largest total number of entries of member k
// occupied by at most l distinct values (the sum of its l largest value
// counts), read from the precomputed prefix table. The Theorem 5/7
// constructions bound it to rule out recognizers.
func (c *Compiled) DensestMass(k, l int) int {
	off, end := int(c.dOff[k]), int(c.dOff[k+1])
	if l <= 0 || off == end {
		return 0
	}
	if j := off + l; j < end {
		end = j
	}
	return int(c.densest[end-1])
}
