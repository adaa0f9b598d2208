// Package condition implements the (x,ℓ)-legality framework of Bonnet &
// Raynal (Section 2): conditions as sets of input vectors, recognizing
// functions h_ℓ, the validity/density/distance properties, legality checking
// and deciding, and the Definition-4 extension of h_ℓ to views.
//
// A condition C is a set of input vectors over the domain {1..m}^n. C is
// (x,ℓ)-legal when a function h_ℓ exists with:
//
//   - Validity:  ∀I∈C: h_ℓ(I) ⊆ val(I) and |h_ℓ(I)| = min(ℓ, |val(I)|)
//   - Density:   ∀I∈C: Σ_{v∈h_ℓ(I)} #_v(I) > x
//   - Distance:  ∀α∈[1,x], ∀{I_1..I_z}⊆C:
//     d_G(I_1..I_z) ≤ x−α+1  ⟹  #_{v ∈ ∩_j h_ℓ(I_j)}(⊓_j I_j) ≥ α
//
// The distance property says that vectors that are close to one another
// (small generalized distance) must share many entries holding commonly
// decodable values; at ℓ=1 it reduces to the x-legality requirement of
// Mostefaoui–Rajsbaum–Raynal, h(I_1) ≠ h(I_2) ⟹ d_H(I_1,I_2) > x, and the
// out-of-range instance α = x+1 (d_G = 0, a single vector) is exactly the
// density property, which is why the paper keeps the two separate.
//
// Intuitively each input vector of C is a codeword encoding up to ℓ values —
// the values that may be decided from it — and the three properties make the
// decoding unambiguous even when up to x entries are missing.
//
// Paper map:
//
//	Definition 2          Checker, Check, ExistsRecognizer  (legality)
//	Section 2.3           MaxCondition, MinCondition        (Theorem 2)
//	Definition 4 / Thm 1  DecodeView, Predicate             (view decoding)
//	Table 1 etc.          Explicit, Enumerate               (enumerated conditions)
//
// # Enumerated conditions
//
// Explicit is the one enumerated form. Its members sit in one flat array
// in insertion order, beside their recognized sets, value sets and value
// counts, and one open-addressing table maps a 64-bit hash of a vector's
// entries to its member position, every hit verified against the stored
// member — so Contains, Recognize and the fused Lookup cost one probe and
// zero allocations whatever the vector size and values, and the mass
// queries of legality checking and recognizer search cost O(|set|).
// Vectors are added one by one, each Add validated, or a whole condition
// is materialized by Enumerate. The legality Checker, the Stream iterator
// and the root package's scenario generators walk the members by position
// (Size, MemberAt, RecognizedAt) without copying; Clone takes an
// independent snapshot, which is what kset.New holds.
//
// Legality verification at scale goes through a Checker, which owns every
// scratch buffer the subset walk needs; the package-level Check and
// ExistsRecognizer remain as one-shot conveniences.
//
// Member enumeration is available in both styles: the callback-based
// Condition.ForEachMember and the resumable pull iterator Stream, which
// backs the root package's streaming scenario generators.
package condition
