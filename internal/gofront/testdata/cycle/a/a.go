// Package a imports b, which imports a back: a broken module.
package a

import "example.com/cycle/b"

// X is written by b.
var X int

// F calls into b.
func F() { b.G() }
