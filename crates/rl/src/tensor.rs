//! A minimal row-major matrix — just enough linear algebra for dense
//! layers: matrix–vector products, transposed products, and rank-1
//! updates.

/// Row-major dense matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// `rows × cols` elements, row-major.
    pub data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// `y = A·x` (length `rows`).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yr = acc;
        }
        y
    }

    /// `y = Aᵀ·x` (length `cols`).
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for (r, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (yc, a) in y.iter_mut().zip(row) {
                *yc += a * xv;
            }
        }
        y
    }

    /// Rank-1 accumulate: `A += α · u·vᵀ`.
    pub fn add_outer(&mut self, alpha: f64, u: &[f64], v: &[f64]) {
        assert_eq!(u.len(), self.rows);
        assert_eq!(v.len(), self.cols);
        for (r, &ur) in u.iter().enumerate() {
            let s = alpha * ur;
            if s == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (a, b) in row.iter_mut().zip(v) {
                *a += s * b;
            }
        }
    }

    /// Elementwise in-place update with another same-shape matrix.
    pub fn zip_apply(&mut self, other: &Matrix, mut f: impl FnMut(&mut f64, f64)) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            f(a, b);
        }
    }

    /// Fill with zeros.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m2x3() -> Matrix {
        Matrix {
            rows: 2,
            cols: 3,
            data: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        }
    }

    #[test]
    fn matvec_known_values() {
        let a = m2x3();
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_known_values() {
        let a = m2x3();
        assert_eq!(a.matvec_t(&[1.0, -1.0]), vec![-3.0, -3.0, -3.0]);
    }

    #[test]
    fn transpose_consistency() {
        // uᵀ(A v) == (Aᵀ u)ᵀ v
        let a = m2x3();
        let u = [0.3, -0.7];
        let v = [0.5, 1.5, -2.0];
        let av = a.matvec(&v);
        let atu = a.matvec_t(&u);
        let lhs: f64 = u.iter().zip(&av).map(|(x, y)| x * y).sum();
        let rhs: f64 = atu.iter().zip(&v).map(|(x, y)| x * y).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn outer_product_accumulates() {
        let mut a = Matrix::zeros(2, 3);
        a.add_outer(2.0, &[1.0, -1.0], &[1.0, 2.0, 3.0]);
        assert_eq!(a.get(0, 2), 6.0);
        assert_eq!(a.get(1, 0), -2.0);
        a.add_outer(1.0, &[1.0, 0.0], &[1.0, 1.0, 1.0]);
        assert_eq!(a.get(0, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_checked() {
        m2x3().matvec(&[1.0, 2.0]);
    }
}
