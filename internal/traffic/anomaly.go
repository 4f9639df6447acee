package traffic

import (
	"fmt"

	"netanomaly/internal/mat"
)

// Anomaly is a volume anomaly: a sudden change (positive or negative) of
// Delta bytes in OD flow Flow during bin Bin (Section 2).
type Anomaly struct {
	Flow int
	Bin  int
	// Delta is the byte change; negative values model traffic loss.
	Delta float64
}

// Inject adds the anomalies to x in place. Flow traffic never goes below
// zero: a negative spike larger than the flow's traffic clips at zero.
func Inject(x *mat.Dense, anomalies []Anomaly) {
	t, n := x.Dims()
	for _, a := range anomalies {
		if a.Bin < 0 || a.Bin >= t || a.Flow < 0 || a.Flow >= n {
			panic(fmt.Sprintf("traffic: anomaly (flow %d, bin %d) out of range %dx%d", a.Flow, a.Bin, t, n))
		}
		v := x.At(a.Bin, a.Flow) + a.Delta
		if v < 0 {
			v = 0
		}
		x.Set(a.Bin, a.Flow, v)
	}
}
