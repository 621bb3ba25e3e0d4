//go:build !borrowpoison

package relstore

// borrowPoison is off in every normal build; poison compiles to nothing.
const borrowPoison = false
