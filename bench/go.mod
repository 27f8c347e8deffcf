// The benchmark is a module of its own so that the root module's
// `go build ./... && go test ./...` never depends on it. The module
// path keeps the repro/ prefix, which is what lets it import the
// simulator's internal packages from outside.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
