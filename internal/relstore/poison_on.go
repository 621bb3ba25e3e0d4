//go:build borrowpoison

package relstore

// borrowPoison switches on the test-only poison mode (go test -tags
// borrowpoison): every operator that builds its output rows in a reused
// scratch row overwrites the row it last handed out before it produces the
// next one, so a consumer that kept a borrowed row without copying it
// reads garbage and fails its checks.
const borrowPoison = true
