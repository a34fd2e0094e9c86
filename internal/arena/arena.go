// Package arena holds the one helper every machine component's Reset uses
// to reinitialize its tables without allocating when a recycled machine is
// reset for a configuration no larger than one it already ran.
package arena

import "slices"

// Resize returns a zeroed slice of length n, reusing s's backing array when
// its capacity suffices (grow-only: capacity never shrinks).
func Resize[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// Extend returns s with length n without clearing it, so elements that own
// storage of their own (nested slices, lazily allocated chunks) keep that
// storage for reuse; the caller reinitializes each element.
func Extend[T any](s []T, n int) []T {
	if n > cap(s) {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}
