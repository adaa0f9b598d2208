// Package vector implements the input-vector algebra of Bonnet & Raynal,
// "Conditions for Set Agreement with an Application to Synchronous Systems"
// (Section 2.1): proposed values, input vectors, views with ⊥ entries,
// containment, Hamming and generalized distances, and intersecting vectors.
//
// Throughout, an input vector I has one entry per process; entry i holds the
// value proposed by process p_i, or Bottom (⊥) if p_i took no step. A vector
// with no Bottom entry is a (full) input vector; a vector with possible
// Bottom entries is a view, usually written J in the paper.
//
// Paper map:
//
//	Section 2.1   values, vectors, views, ≤ containment, #_a(I), val(I)
//	Section 2.2   d_H and the generalized distance d_G (Definition 1)
//
// One representation choice carries the module's performance budget: the
// value domain is capped at 64 (MaxSetValue) so a value Set is one
// machine word with allocation-free operations. Enumeration (ForEach and
// the resumable Enum pull iterator) streams over a single reusable buffer.
package vector
