//go:build race

package main

// The race detector slows the workloads several times over; the smoke
// phases lengthen so they still reach the tail rule's op counts.
func init() { smokePhase *= 6 }
