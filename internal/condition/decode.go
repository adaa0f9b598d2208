package condition

import "kset/internal/vector"

// Predicater is implemented by conditions that can answer the predicate
// P(J) — "∃I ∈ C with J ≤ I" — faster than by enumerating completions.
// MaxCondition implements it analytically.
type Predicater interface {
	P(j vector.Vector) bool
}

// Predicate evaluates P(J): whether some member of the condition contains
// the view J. It uses the condition's analytic fast path when available and
// otherwise enumerates the m^{#⊥(J)} completions of J, so generic views
// should carry few ⊥ entries (the synchronous algorithm only evaluates P on
// views with at most t−d of them).
func Predicate(c Condition, j vector.Vector) bool {
	if p, ok := c.(Predicater); ok {
		return p.P(j)
	}
	found := false
	vector.ForEachCompletion(j, c.M(), func(i vector.Vector) bool {
		if c.Contains(i) {
			found = true
			return false
		}
		return true
	})
	return found
}

// DecodeView computes the Definition-4 extension of the recognizing
// function to a view J with ⊥ entries:
//
//	h_ℓ(J) = ( ∩_{I ∈ C, J ≤ I} h_ℓ(I) ) ∩ val(J),
//
// intersecting over every member that contains J. The second result is
// false when no member contains J (h_ℓ(J) is then undefined).
//
// Theorem 1 guarantees 1 ≤ |h_ℓ(J)| ≤ ℓ whenever #_⊥(J) ≤ x for an
// (x,ℓ)-legal condition, so callers may decide any value of the result; the
// synchronous algorithm decides max(h_ℓ(J)).
//
// Conditions implementing ViewDecoder (MaxCondition does, in closed form)
// are decoded directly; otherwise the cost is one pass over the m^{#⊥(J)}
// completions of J (members not containing J contribute nothing, so only
// completions need inspecting).
func DecodeView(c Condition, j vector.Vector) (vector.Set, bool) {
	if d, ok := c.(ViewDecoder); ok {
		return d.DecodeView(j)
	}
	return decodeViewGeneric(c, j)
}

// decodeViewGeneric is the enumeration fallback of DecodeView, which tests
// compare specialized decoders against. An *Explicit pays one index probe
// (its fused Lookup) per completion instead of a Contains/Recognize pair.
func decodeViewGeneric(c Condition, j vector.Vector) (vector.Set, bool) {
	var acc vector.Set
	found := false
	e, fused := c.(*Explicit)
	vector.ForEachCompletion(j, c.M(), func(i vector.Vector) bool {
		var h vector.Set
		if fused {
			var ok bool
			if h, ok = e.Lookup(i); !ok {
				return true
			}
		} else {
			if !c.Contains(i) {
				return true
			}
			h = c.Recognize(i)
		}
		if !found {
			acc = h
			found = true
		} else {
			acc = acc.Intersect(h)
		}
		// Early exit: the intersection can only shrink, and it is finally
		// intersected with val(J); once empty it stays empty.
		return !acc.Empty()
	})
	if !found {
		return vector.Set{}, false
	}
	return acc.Intersect(j.Vals()), true
}
