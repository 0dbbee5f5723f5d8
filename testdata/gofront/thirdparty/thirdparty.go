// Package thirdparty imports a package from outside both the standard
// library and its own module. The import does not resolve, so every
// function reaching through it degrades, while the standard-library
// import beside it still type-checks.
package thirdparty

import (
	"strings"

	"example.com/widgets"
)

var rendered int

// Render counts a render and hands the trimmed name to the
// unresolved package.
func Render(name string) string {
	rendered++
	return widgets.Render(strings.TrimSpace(name))
}

// Rename writes through a pointer to the unresolved package's type.
func Rename(w *widgets.Widget, name string) { w.Name = strings.ToUpper(name) }

// Reset stays inside the package.
func Reset(p *int) { *p = rendered }
