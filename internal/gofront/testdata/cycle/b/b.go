// Package b closes the import cycle with a.
package b

import "example.com/cycle/a"

// G writes a's global.
func G() { a.X = 1 }
