//! SVG rendering of road networks with per-segment colouring.
//!
//! The paper's Fig. 4 is a road map coloured by per-segment anomaly score;
//! this module produces that artefact (and general network visualisations)
//! with zero dependencies: plain SVG strings.

use crate::graph::{RoadClass, RoadNetwork, SegmentId};

/// Style options for [`render_svg`].
#[derive(Clone, Debug)]
pub struct RenderOptions {
    /// Output width in pixels (height follows the aspect ratio).
    pub width: f64,
    /// Margin around the drawing in pixels.
    pub margin: f64,
    /// Stroke width for base road segments.
    pub base_stroke: f64,
    /// Stroke width for highlighted segments.
    pub highlight_stroke: f64,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions { width: 800.0, margin: 20.0, base_stroke: 1.2, highlight_stroke: 4.0 }
    }
}

/// A segment highlighted with a value in `[0, 1]` (coloured on a
/// blue→red ramp) or with a fixed colour.
#[derive(Clone, Debug)]
pub struct Highlight {
    /// Which segment.
    pub segment: SegmentId,
    /// Colour ramp position `0.0 = cool` to `1.0 = hot`, used when
    /// `color` is `None`.
    pub value: f64,
    /// Explicit CSS colour overriding the ramp.
    pub color: Option<String>,
}

/// Renders the network as an SVG string. Base roads are grey (width by
/// class); `highlights` are drawn on top.
pub fn render_svg(net: &RoadNetwork, highlights: &[Highlight], opts: &RenderOptions) -> String {
    let (min_x, min_y, max_x, max_y) = bounds(net);
    let span_x = (max_x - min_x).max(1.0);
    let span_y = (max_y - min_y).max(1.0);
    let scale = (opts.width - 2.0 * opts.margin) / span_x;
    let height = span_y * scale + 2.0 * opts.margin;

    let project = |x: f64, y: f64| -> (f64, f64) {
        (
            (x - min_x) * scale + opts.margin,
            // Flip y: SVG's origin is top-left.
            height - ((y - min_y) * scale + opts.margin),
        )
    };

    let mut svg = String::with_capacity(64 * net.num_segments());
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" \
         viewBox=\"0 0 {:.0} {:.0}\">\n<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n",
        opts.width, height, opts.width, height
    ));

    // Base layer: all segments, grey by class.
    for s in net.segment_ids() {
        let seg = net.segment(s);
        let a = net.node(seg.from).pos;
        let b = net.node(seg.to).pos;
        let (x1, y1) = project(a.x, a.y);
        let (x2, y2) = project(b.x, b.y);
        let (color, w) = match seg.class {
            RoadClass::Major => ("#888888", opts.base_stroke * 2.0),
            RoadClass::Arterial => ("#aaaaaa", opts.base_stroke * 1.4),
            RoadClass::Local => ("#cccccc", opts.base_stroke),
        };
        svg.push_str(&format!(
            "<line x1=\"{x1:.1}\" y1=\"{y1:.1}\" x2=\"{x2:.1}\" y2=\"{y2:.1}\" \
             stroke=\"{color}\" stroke-width=\"{w:.1}\"/>\n"
        ));
    }

    // Highlight layer.
    for h in highlights {
        let seg = net.segment(h.segment);
        let a = net.node(seg.from).pos;
        let b = net.node(seg.to).pos;
        let (x1, y1) = project(a.x, a.y);
        let (x2, y2) = project(b.x, b.y);
        let color = h.color.clone().unwrap_or_else(|| ramp(h.value));
        svg.push_str(&format!(
            "<line x1=\"{x1:.1}\" y1=\"{y1:.1}\" x2=\"{x2:.1}\" y2=\"{y2:.1}\" \
             stroke=\"{color}\" stroke-width=\"{:.1}\" stroke-linecap=\"round\"/>\n",
            opts.highlight_stroke
        ));
    }

    svg.push_str("</svg>\n");
    svg
}

/// Blue (0.0) → red (1.0) colour ramp via simple RGB interpolation.
fn ramp(value: f64) -> String {
    let v = value.clamp(0.0, 1.0);
    let r = (255.0 * v) as u8;
    let b = (255.0 * (1.0 - v)) as u8;
    let g = (96.0 * (1.0 - (2.0 * v - 1.0).abs())) as u8;
    format!("#{r:02x}{g:02x}{b:02x}")
}

fn bounds(net: &RoadNetwork) -> (f64, f64, f64, f64) {
    let mut min_x = f64::INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for n in net.node_ids() {
        let p = net.node(n).pos;
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
        max_x = max_x.max(p.x);
        max_y = max_y.max(p.y);
    }
    if !min_x.is_finite() {
        return (0.0, 0.0, 1.0, 1.0);
    }
    (min_x, min_y, max_x, max_y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{generate_grid_city, GridCityConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn svg_contains_all_segments() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = generate_grid_city(&GridCityConfig::tiny(), &mut rng);
        let svg = render_svg(&net, &[], &RenderOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        let lines = svg.matches("<line").count();
        assert_eq!(lines, net.num_segments());
    }

    #[test]
    fn highlights_are_drawn_on_top() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = generate_grid_city(&GridCityConfig::tiny(), &mut rng);
        let highlights = vec![
            Highlight { segment: SegmentId(0), value: 0.0, color: None },
            Highlight { segment: SegmentId(1), value: 1.0, color: Some("#00ff00".into()) },
        ];
        let svg = render_svg(&net, &highlights, &RenderOptions::default());
        assert_eq!(svg.matches("<line").count(), net.num_segments() + 2);
        assert!(svg.contains("#00ff00"));
        assert!(svg.contains(&ramp(0.0)));
    }

    #[test]
    fn ramp_endpoints() {
        assert_eq!(ramp(0.0), "#0000ff");
        assert_eq!(ramp(1.0), "#ff0000");
        assert_eq!(ramp(-3.0), ramp(0.0));
        assert_eq!(ramp(9.0), ramp(1.0));
    }

    #[test]
    fn empty_network_renders() {
        let net = RoadNetwork::new();
        let svg = render_svg(&net, &[], &RenderOptions::default());
        assert!(svg.contains("</svg>"));
    }
}
