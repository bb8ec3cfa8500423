// The benchmark is a module of its own so that the repository's build
// (`go build ./... && go test ./...` at the root) does not include it.
// Its import path stays under quickr/, which is what lets it import the
// layers' exported functions from quickr/internal/... for the traced run.
module quickr/benchmark

go 1.22

require quickr v0.0.0

replace quickr => ../
