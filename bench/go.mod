// The battery is a module of its own so it builds from bench/ alone; the
// vconf/ path prefix is what lets it import vconf/internal/... packages.
module vconf/bench

go 1.24

require vconf v0.0.0

replace vconf => ../
