// Package shelf is a third-party package found on GOPATH whose API
// takes a standard-library type.
package shelf

import "bufio"

// Lines counts the lines r yields.
func Lines(r *bufio.Reader) int {
	n := 0
	for {
		if _, err := r.ReadString('\n'); err != nil {
			return n
		}
		n++
	}
}
