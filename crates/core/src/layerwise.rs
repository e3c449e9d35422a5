//! Per-layer (per-tensor) bucket layouts.
//!
//! Real frameworks compress each layer's gradient tensor separately — that is how
//! the paper's Horovod integration works and why its micro-benchmarks sweep tensor
//! sizes from 0.26M to 260M elements. A [`LayerLayout`] names the consecutive
//! segments of a flat parameter vector; the data-parallel trainer in `sidco-dist`
//! keeps one compressor per segment and compresses each one independently.

/// The sizes of the consecutive layers making up a flat parameter vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerLayout {
    sizes: Vec<usize>,
}

impl LayerLayout {
    /// Creates a layout from per-layer parameter counts.
    ///
    /// # Panics
    ///
    /// Panics if any layer is empty or the layout itself is empty.
    pub fn new(sizes: Vec<usize>) -> Self {
        assert!(!sizes.is_empty(), "a layout needs at least one layer");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        Self { sizes }
    }

    /// A uniform split of `total` parameters into `layers` nearly equal layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is zero or exceeds `total`.
    pub fn uniform(total: usize, layers: usize) -> Self {
        assert!(layers > 0 && layers <= total, "layers must be in 1..=total");
        let base = total / layers;
        let remainder = total % layers;
        let sizes = (0..layers)
            .map(|i| base + usize::from(i < remainder))
            .collect();
        Self::new(sizes)
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Returns `true` if the layout has no layers (never constructible).
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Total number of parameters.
    pub fn total(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// Per-layer sizes.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Iterator over `(offset, size)` pairs.
    pub fn segments(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.sizes.iter().scan(0usize, |offset, &size| {
            let start = *offset;
            *offset += size;
            Some((start, size))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_construction_and_segments() {
        let layout = LayerLayout::new(vec![3, 5, 2]);
        assert_eq!(layout.len(), 3);
        assert_eq!(layout.total(), 10);
        assert_eq!(layout.sizes(), &[3, 5, 2]);
        let segments: Vec<_> = layout.segments().collect();
        assert_eq!(segments, vec![(0, 3), (3, 5), (8, 2)]);
        let uniform = LayerLayout::uniform(10, 3);
        assert_eq!(uniform.sizes(), &[4, 3, 3]);
        assert_eq!(uniform.total(), 10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn layout_rejects_empty_layers() {
        LayerLayout::new(vec![3, 0, 2]);
    }
}
