// Package maporder seeds order-sensitive map iterations: appends
// without a sort, output, first-match returns and assignments — plus
// the sanctioned collect-then-sort idiom that must NOT be flagged.
package maporder

import (
	"fmt"
	"sort"
)

func LeakAppend(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "append to out in map-iteration order"
	}
	return out
}

// SortedCollect is the sanctioned idiom: collect, sort, then use. The
// analyzer must treat the append as safe.
func SortedCollect(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func LeakOutput(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "fmt.Println inside map iteration"
	}
}

func LeakReturn(m map[string]int, want int) string {
	for k, v := range m {
		if v == want {
			return k // want "return inside map iteration"
		}
	}
	return ""
}

func LeakFirstWins(m map[uint64]string, needle string) uint64 {
	var found uint64
	for h, s := range m {
		if s == needle {
			found = h // want "assignment to found of an iteration-dependent value"
		}
	}
	return found
}

func LeakConcat(m map[string]int) string {
	s := ""
	for k := range m {
		s += k // want "string concatenation onto s in map-iteration order"
	}
	return s
}

// LeakFloatSum folds floats in map order: floating-point addition is
// not associative, so the sum's bit pattern depends on which key comes
// first (an integer sum draws the same finding; sort the keys or fold
// rank-ordered partials).
func LeakFloatSum(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v // want "assignment to sum of an iteration-dependent value"
	}
	return sum
}

func LeakFloatSumExplicit(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total = total + v // want "assignment to total of an iteration-dependent value"
	}
	return total
}

// MembershipOK sets a flag to a constant: idempotent under any
// iteration order, not flagged.
func MembershipOK(m map[string]bool, key string) bool {
	ok := false
	for k := range m {
		if k == key {
			ok = true
		}
	}
	return ok
}

// KeyedStoreOK writes through the ranged key: each entry lands in its
// own slot regardless of order, not flagged.
func KeyedStoreOK(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}

// Suppressed shows the escape hatch.
func Suppressed(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) //simlint:ignore maporder iteration order randomized deliberately for fuzzing
	}
	return out
}
