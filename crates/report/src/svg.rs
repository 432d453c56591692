//! Hand-rolled, deterministic inline-SVG chart builders.
//!
//! Everything here is a pure function of its inputs: coordinates are
//! formatted with fixed precision, iteration order is the caller's,
//! and no ambient state (time, RNG, locale) is consulted — so a report
//! built from the same artifacts is byte-identical on any machine.
//!
//! Colors are *not* baked in: marks reference the `--series-N`,
//! `--ink-*`, and `--grid` CSS custom properties that the HTML shell
//! defines (with validated light and dark values), so the same SVG
//! adapts to `prefers-color-scheme` for free.

use std::fmt::Write as _;

/// Escapes text for SVG/HTML content and attribute positions.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

/// Deterministic human formatting: integers bare, everything else with
/// two decimals (trailing zeros trimmed).
pub fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "–".to_string();
    }
    if v.trunc() == v && v.abs() < 1e15 {
        return format!("{}", v as i64);
    }
    let s = format!("{v:.2}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    s.to_string()
}

/// Fixed-precision pixel coordinate (two decimals, no negative zero).
fn px(v: f64) -> String {
    let r = (v * 100.0).round() / 100.0;
    let r = if r == 0.0 { 0.0 } else { r };
    let s = format!("{r:.2}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// "Nice" axis ceiling: the smallest 1/2/5 × 10^k at or above `max`.
fn nice_ceiling(max: f64) -> f64 {
    if max <= 0.0 || !max.is_finite() {
        return 1.0;
    }
    let exp = max.log10().floor();
    let base = 10f64.powf(exp);
    for mult in [1.0, 2.0, 5.0, 10.0] {
        if base * mult >= max {
            return base * mult;
        }
    }
    base * 10.0
}

/// One bar of a horizontal bar chart.
pub struct HBar {
    /// Row label (left gutter).
    pub label: String,
    /// Bar length in data units.
    pub value: f64,
    /// Optional reference marker (e.g. a closed-form bound) drawn as a
    /// tick at this data position.
    pub marker: Option<f64>,
    /// Tooltip text (native SVG `<title>`).
    pub tooltip: String,
    /// 1-based categorical palette slot for the bar fill.
    pub series: usize,
}

/// A horizontal bar chart with an optional per-row reference marker.
/// One x-axis in data units; row labels in the left gutter.
pub fn hbar_chart(bars: &[HBar], x_label: &str) -> String {
    const GUTTER: f64 = 190.0;
    const PLOT_W: f64 = 560.0;
    const ROW_H: f64 = 26.0;
    const BAR_H: f64 = 14.0;
    const TOP: f64 = 8.0;
    const AXIS_H: f64 = 34.0;
    let max = bars
        .iter()
        .flat_map(|b| [b.value, b.marker.unwrap_or(0.0)])
        .fold(0.0f64, f64::max);
    let ceil = nice_ceiling(max);
    let height = TOP + bars.len() as f64 * ROW_H + AXIS_H;
    let width = GUTTER + PLOT_W + 20.0;
    let mut s = String::new();
    let _ = write!(
        s,
        "<svg viewBox=\"0 0 {} {}\" role=\"img\" xmlns=\"http://www.w3.org/2000/svg\">",
        px(width),
        px(height)
    );
    // Gridlines + axis ticks at quarters of the ceiling.
    let axis_y = TOP + bars.len() as f64 * ROW_H;
    for q in 0..=4u32 {
        let x = GUTTER + PLOT_W * f64::from(q) / 4.0;
        let _ = write!(
            s,
            "<line x1=\"{x}\" y1=\"{y1}\" x2=\"{x}\" y2=\"{y2}\" class=\"grid\"/>\
             <text x=\"{x}\" y=\"{ty}\" class=\"tick\" text-anchor=\"middle\">{t}</text>",
            x = px(x),
            y1 = px(TOP),
            y2 = px(axis_y),
            ty = px(axis_y + 14.0),
            t = esc(&fmt_num(ceil * f64::from(q) / 4.0)),
        );
    }
    let _ = write!(
        s,
        "<text x=\"{x}\" y=\"{y}\" class=\"axis-label\" text-anchor=\"middle\">{t}</text>",
        x = px(GUTTER + PLOT_W / 2.0),
        y = px(axis_y + 30.0),
        t = esc(x_label),
    );
    for (i, b) in bars.iter().enumerate() {
        let y = TOP + i as f64 * ROW_H;
        let w = if ceil > 0.0 {
            b.value / ceil * PLOT_W
        } else {
            0.0
        };
        let _ = write!(
            s,
            "<text x=\"{lx}\" y=\"{ly}\" class=\"row-label\" text-anchor=\"end\">{label}</text>\
             <rect x=\"{bx}\" y=\"{by}\" width=\"{bw}\" height=\"{bh}\" rx=\"3\" \
             class=\"s{series}\"><title>{tip}</title></rect>",
            lx = px(GUTTER - 8.0),
            ly = px(y + BAR_H),
            label = esc(&b.label),
            bx = px(GUTTER),
            by = px(y + (ROW_H - BAR_H) / 2.0),
            bw = px(w.max(1.0)),
            bh = px(BAR_H),
            series = b.series,
            tip = esc(&b.tooltip),
        );
        if let Some(m) = b.marker {
            let mx = GUTTER + (m / ceil * PLOT_W);
            let _ = write!(
                s,
                "<line x1=\"{x}\" y1=\"{y1}\" x2=\"{x}\" y2=\"{y2}\" class=\"marker\">\
                 <title>bound {t}</title></line>",
                x = px(mx),
                y1 = px(y + 2.0),
                y2 = px(y + ROW_H - 2.0),
                t = esc(&fmt_num(m)),
            );
        }
    }
    s.push_str("</svg>");
    s
}

/// One column of a vertical bar chart (histogram bucket, timeline
/// step, …).
pub struct VBar {
    /// Column label (x tick).
    pub label: String,
    /// Column height in data units.
    pub value: f64,
    /// Tooltip text.
    pub tooltip: String,
    /// 1-based categorical palette slot.
    pub series: usize,
}

/// A vertical bar chart with a 2px surface gap between adjacent bars.
/// Labels thin out automatically when there are many columns.
pub fn vbar_chart(bars: &[VBar], x_label: &str, y_label: &str) -> String {
    const LEFT: f64 = 70.0;
    const PLOT_W: f64 = 600.0;
    const PLOT_H: f64 = 200.0;
    const TOP: f64 = 12.0;
    const AXIS_H: f64 = 40.0;
    let y_ceil = nice_ceiling(bars.iter().map(|b| b.value).fold(0.0f64, f64::max));
    let width = LEFT + PLOT_W + 20.0;
    let height = TOP + PLOT_H + AXIS_H;
    let slot_w = PLOT_W / (bars.len().max(1) as f64);
    let bar_w = (slot_w - 2.0).max(1.0);
    // At most ~12 x labels; step chosen so ticks stay readable.
    let label_step = bars.len().div_ceil(12).max(1);
    let mut s = String::new();
    let _ = write!(
        s,
        "<svg viewBox=\"0 0 {} {}\" role=\"img\" xmlns=\"http://www.w3.org/2000/svg\">",
        px(width),
        px(height)
    );
    for q in 0..=4u32 {
        let frac = f64::from(q) / 4.0;
        let y = TOP + PLOT_H * (1.0 - frac);
        let _ = write!(
            s,
            "<line x1=\"{x1}\" y1=\"{y}\" x2=\"{x2}\" y2=\"{y}\" class=\"grid\"/>\
             <text x=\"{tx}\" y=\"{ty}\" class=\"tick\" text-anchor=\"end\">{t}</text>",
            x1 = px(LEFT),
            x2 = px(LEFT + PLOT_W),
            y = px(y),
            tx = px(LEFT - 8.0),
            ty = px(y + 4.0),
            t = esc(&fmt_num(y_ceil * frac)),
        );
    }
    for (i, b) in bars.iter().enumerate() {
        let x = LEFT + i as f64 * slot_w + 1.0;
        let h = if y_ceil > 0.0 {
            (b.value / y_ceil * PLOT_H).max(if b.value > 0.0 { 1.0 } else { 0.0 })
        } else {
            0.0
        };
        let _ = write!(
            s,
            "<rect x=\"{x}\" y=\"{y}\" width=\"{w}\" height=\"{h}\" rx=\"2\" \
             class=\"s{slot}\"><title>{tip}</title></rect>",
            x = px(x),
            y = px(TOP + PLOT_H - h),
            w = px(bar_w),
            h = px(h),
            slot = b.series,
            tip = esc(&b.tooltip),
        );
        if i % label_step == 0 {
            let _ = write!(
                s,
                "<text x=\"{tx}\" y=\"{ty}\" class=\"tick\" text-anchor=\"middle\">{t}</text>",
                tx = px(x + bar_w / 2.0),
                ty = px(TOP + PLOT_H + 16.0),
                t = esc(&b.label),
            );
        }
    }
    let _ = write!(
        s,
        "<text x=\"{x}\" y=\"{y}\" class=\"axis-label\" text-anchor=\"middle\">{t}</text>\
         <text x=\"14\" y=\"{ly}\" class=\"axis-label\" text-anchor=\"middle\" \
         transform=\"rotate(-90 14 {ly})\">{l}</text>",
        x = px(LEFT + PLOT_W / 2.0),
        y = px(TOP + PLOT_H + 34.0),
        t = esc(x_label),
        ly = px(TOP + PLOT_H / 2.0),
        l = esc(y_label),
    );
    s.push_str("</svg>");
    s
}

/// A legend line for ≥ 2 series: colored swatch + name in text ink.
pub fn legend(entries: &[(String, usize)]) -> String {
    if entries.len() < 2 {
        return String::new();
    }
    let mut s = String::from("<div class=\"legend\">");
    for (name, slot) in entries {
        let _ = write!(
            s,
            "<span class=\"legend-item\"><span class=\"swatch s{slot}\"></span>{}</span>",
            esc(name)
        );
    }
    s.push_str("</div>");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_num_is_stable() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(12.0), "12");
        assert_eq!(fmt_num(12.5), "12.5");
        assert_eq!(fmt_num(12.345), "12.35");
        assert_eq!(fmt_num(f64::NAN), "–");
    }

    #[test]
    fn nice_ceiling_snaps_up() {
        assert_eq!(nice_ceiling(0.0), 1.0);
        assert_eq!(nice_ceiling(7.0), 10.0);
        assert_eq!(nice_ceiling(14.0), 20.0);
        assert_eq!(nice_ceiling(50.0), 50.0);
        assert_eq!(nice_ceiling(430.0), 500.0);
    }

    #[test]
    fn charts_are_deterministic_and_escaped() {
        let bars = vec![HBar {
            label: "a<b>".to_string(),
            value: 3.0,
            marker: Some(5.0),
            tooltip: "3 \"moves\"".to_string(),
            series: 1,
        }];
        let one = hbar_chart(&bars, "moves");
        let two = hbar_chart(&bars, "moves");
        assert_eq!(one, two);
        assert!(one.contains("a&lt;b&gt;"));
        assert!(one.contains("&quot;moves&quot;"));
        assert!(one.contains("class=\"marker\""));
    }

    #[test]
    fn legend_needs_two_series() {
        assert!(legend(&[("solo".to_string(), 1)]).is_empty());
        let l = legend(&[("a".to_string(), 1), ("b".to_string(), 2)]);
        assert!(l.contains("swatch s1") && l.contains("swatch s2"));
    }

    #[test]
    fn vbar_thins_labels() {
        let bars: Vec<VBar> = (0..40)
            .map(|i| VBar {
                label: format!("{i}"),
                value: f64::from(i),
                tooltip: format!("bucket {i}"),
                series: 3,
            })
            .collect();
        let s = vbar_chart(&bars, "bucket", "count");
        // 40 columns, step 4 → exactly 10 x tick labels.
        assert_eq!(
            s.matches("class=\"tick\" text-anchor=\"middle\"").count(),
            10
        );
    }
}
