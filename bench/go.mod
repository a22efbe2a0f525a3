// The benchmark is a module of its own so that the proxy's tier-1 build
// (`go build ./... && go test ./...` at the repository root) neither compiles
// nor runs it. The import path stays under appx/ so appx/internal/... is
// importable; the replace directive points at the checkout it sits in.
module appx/bench

go 1.22

require appx v0.0.0

replace appx => ../
