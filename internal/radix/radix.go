// Package radix sorts strings byte-wise lexicographically — the order of
// sort.Strings, which is the canonical order of a one-column result — by
// MSD radix bucketing. Result sets and key dictionaries routinely share
// long prefixes (generated keys, formatted integers), where comparison
// sorts pay O(prefix) per comparison.
package radix

// Strings sorts cells byte-wise lexicographically — the exact order of
// sort.Strings.
func Strings(cells []string) { new(Sorter).Sort(cells, nil) }

// MinSize is the segment size below which comparison sort wins: a
// segment that small is insertion-sorted.
const MinSize = 48

// Sorter sorts strings byte-wise lexicographically by MSD radix
// bucketing; it is the sort's scratch memory, reusable across calls.
// Result sets routinely share long prefixes (generated keys, formatted
// integers), where comparison sorts pay O(prefix) per comparison; here a
// level whose strings all continue with the same byte measures the
// segment's whole common prefix once and skips it in one step, instead
// of re-counting the segment once per shared byte.
type Sorter struct {
	keys []string
	idx  []int32
}

// Cap returns the largest capacity the scratch holds, in elements.
func (rs *Sorter) Cap() int { return max(cap(rs.keys), cap(rs.idx)) }

// Sort sorts keys. A non-nil idx is a payload moved in lock-step with
// them: rows whose first cell is a unique key are sorted by sorting (key,
// row index) pairs on the key alone.
func (rs *Sorter) Sort(keys []string, idx []int32) {
	n := len(keys)
	if n < MinSize {
		insertionSortSuffix(keys, idx, 0)
		return
	}
	if cap(rs.keys) < n {
		rs.keys, rs.idx = make([]string, n), make([]int32, n)
	}
	type frame struct{ lo, hi, depth int }
	var buf [64]frame
	stack := append(buf[:0], frame{0, n, 0})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		seg := keys[f.lo:f.hi]
		var iseg []int32
		if idx != nil {
			iseg = idx[f.lo:f.hi]
		}
		if len(seg) < MinSize {
			insertionSortSuffix(seg, iseg, f.depth)
			continue
		}
		// Bucket 0 holds strings that end at this depth; bucket b+1
		// holds byte value b.
		var counts [257]int
		for _, s := range seg {
			if len(s) <= f.depth {
				counts[0]++
			} else {
				counts[int(s[f.depth])+1]++
			}
		}
		if counts[0] == len(seg) {
			continue // all strings end here: segment is all-equal
		}
		if s0 := seg[0]; len(s0) > f.depth && counts[int(s0[f.depth])+1] == len(seg) {
			// One bucket: every string continues with the same byte.
			d := f.depth + 1
			stack = append(stack, frame{f.lo, f.hi, d + commonPrefix(seg, d)})
			continue
		}
		var offsets [257]int
		sum := 0
		for b := 0; b < 257; b++ {
			offsets[b] = sum
			sum += counts[b]
		}
		for j, s := range seg {
			b := 0
			if len(s) > f.depth {
				b = int(s[f.depth]) + 1
			}
			rs.keys[offsets[b]] = s
			if iseg != nil {
				rs.idx[offsets[b]] = iseg[j]
			}
			offsets[b]++
		}
		copy(seg, rs.keys)
		copy(iseg, rs.idx)
		// Recurse into buckets with ≥ 2 strings (bucket 0 is all-equal).
		pos := f.lo + counts[0]
		for b := 1; b < 257; b++ {
			if counts[b] > 1 {
				stack = append(stack, frame{pos, pos + counts[b], f.depth + 1})
			}
			pos += counts[b]
		}
	}
	clear(rs.keys[:n]) // pooled scratch must not pin the caller's strings
}

// commonPrefix returns how many bytes from depth on every string of seg
// shares; all of them are at least depth long.
func commonPrefix(seg []string, depth int) int {
	first := seg[0][depth:]
	n := len(first)
	for _, s := range seg[1:] {
		s = s[depth:]
		if len(s) < n {
			n = len(s)
		}
		for i := 0; i < n; i++ {
			if s[i] != first[i] {
				n = i
				break
			}
		}
		if n == 0 {
			break
		}
	}
	return n
}

// insertionSortSuffix sorts a small segment whose strings agree on the
// first depth bytes, comparing only the suffixes so the shared prefix is
// not re-scanned on every compare; iseg, when non-nil, moves with it.
// Allocation-free.
func insertionSortSuffix(seg []string, iseg []int32, depth int) {
	for i := 1; i < len(seg); i++ {
		s := seg[i]
		suf := s[depth:]
		j := i - 1
		for j >= 0 && seg[j][depth:] > suf {
			seg[j+1] = seg[j]
			j--
		}
		seg[j+1] = s
		if iseg != nil {
			v := iseg[i]
			copy(iseg[j+2:i+1], iseg[j+1:i])
			iseg[j+1] = v
		}
	}
}
