package mat

import "math/cmplx"

// SpectralRadius returns max|λᵢ| over the eigenvalues of a, computed by the
// Hessenberg QR iteration (EigenvaluesQR) at every size. It is the one
// eigensolver behind the stability analysis (paper §6.2).
func SpectralRadius(a *Dense) (float64, error) {
	eigs, err := EigenvaluesQR(a)
	if err != nil {
		return 0, err
	}
	var rho float64
	for _, e := range eigs {
		if m := cmplx.Abs(e); m > rho {
			rho = m
		}
	}
	return rho, nil
}
