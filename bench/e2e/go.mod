// The end-to-end benchmark is its own module so the repository's build and
// tier-1 test commands do not change when it does. The replace directive
// points back at the repository it measures; the module path keeps the
// gridmind/ prefix so the layer probe may import gridmind/internal/...
module gridmind/bench/e2e

go 1.24

require gridmind v0.0.0

replace gridmind => ../..
