// Package lib is the library behind the unreached fixture's facade.
package lib

// Build is named only by the facade's package-level var.
func Build() int { return 1 }
