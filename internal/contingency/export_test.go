package contingency

// ScreenedAlgorithm exposes the screener's record label to the external
// conservatism test.
const ScreenedAlgorithm = screenedAlgorithm
