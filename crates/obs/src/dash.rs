//! A dependency-free terminal dashboard over [`ClusterMetrics`]: raw
//! ANSI, ratatui-style panel layout, no TUI crate.
//!
//! [`render`] produces one complete frame as a string — per-node panels
//! (health, taint, quorum, op counters, latency, sparkline), an optional
//! per-shard service panel, and the scrolling fault/recovery feed. The
//! caller decides how to present it: print once (`--headless --once`),
//! or repaint in place with [`HOME`] + [`DashStyle::live`] line clearing
//! for a live view.

use crate::metrics::{ClusterMetrics, ShardGauge};
use std::fmt::Write as _;

/// ANSI: clear the whole screen (print once before a live session).
pub const CLEAR: &str = "\x1b[2J";
/// ANSI: move the cursor home (print before each live repaint).
pub const HOME: &str = "\x1b[H";

/// The eight-level block characters a sparkline is drawn with.
const SPARK_GLYPHS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Inner width of every panel (between the `│` borders).
const WIDTH: usize = 76;

/// Rendering options.
#[derive(Clone, Debug)]
pub struct DashStyle {
    /// Live terminal repaint: ANSI colors, and an erase-to-end-of-line
    /// after every row so a shorter new frame never leaves stale tails
    /// on screen. Off, a frame is plain text.
    pub live: bool,
    /// Header label (e.g. the backend name or scenario).
    pub title: String,
}

impl DashStyle {
    /// No colors, no ANSI clears — the headless/CI preset; frames are
    /// plain text safe to snapshot and grep.
    pub fn headless() -> DashStyle {
        DashStyle {
            live: false,
            title: String::new(),
        }
    }
}

/// Renders `values` (each a latency, µs) as one sparkline string, scaled
/// to the series' own maximum. All-zero input renders as spaces.
pub fn sparkline(values: &[u64]) -> String {
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if max == 0 || v == 0 {
                SPARK_GLYPHS[0]
            } else {
                // Nonzero samples always get at least the lowest bar.
                let level = 1 + (v.saturating_mul(7) / max.max(1)) as usize;
                SPARK_GLYPHS[level.min(8)]
            }
        })
        .collect()
}

/// A human-readable model-time quantity (µs → ms → s).
pub fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// Display width of `s`: counts chars, not bytes (the frame is full of
/// box-drawing and block glyphs), treating the sparkline glyphs and
/// box-drawing marks as width 1, which holds in every terminal font.
/// ANSI escape sequences count zero.
fn visible_width(s: &str) -> usize {
    let mut w = 0usize;
    let mut in_escape = false;
    for c in s.chars() {
        if in_escape {
            if c.is_ascii_alphabetic() {
                in_escape = false;
            }
        } else if c == '\x1b' {
            in_escape = true;
        } else {
            w += 1;
        }
    }
    w
}

struct Frame {
    out: String,
    style: DashStyle,
}

impl Frame {
    fn eol(&mut self) {
        if self.style.live {
            self.out.push_str("\x1b[K");
        }
        self.out.push('\n');
    }

    fn top(&mut self, label: &str) {
        let tag = if label.is_empty() {
            String::new()
        } else {
            format!(" {label} ")
        };
        // 1 leading rule char after ┌, so the body spans WIDTH columns.
        let fill = WIDTH.saturating_sub(1 + visible_width(&tag));
        let _ = write!(self.out, "┌─{tag}{}┐", "─".repeat(fill));
        self.eol();
    }

    fn mid(&mut self, label: &str) {
        let tag = if label.is_empty() {
            String::new()
        } else {
            format!(" {label} ")
        };
        let fill = WIDTH.saturating_sub(1 + visible_width(&tag));
        let _ = write!(self.out, "├─{tag}{}┤", "─".repeat(fill));
        self.eol();
    }

    fn row(&mut self, content: &str) {
        let pad = WIDTH.saturating_sub(visible_width(content));
        let _ = write!(self.out, "│{content}{}│", " ".repeat(pad));
        self.eol();
    }

    fn bottom(&mut self) {
        let _ = write!(self.out, "└{}┘", "─".repeat(WIDTH));
        self.eol();
    }

    fn paint(&self, code: &str, text: &str) -> String {
        if self.style.live {
            format!("\x1b[{code}m{text}\x1b[0m")
        } else {
            text.to_string()
        }
    }
}

/// Renders one complete dashboard frame.
pub fn render(m: &ClusterMetrics, style: &DashStyle) -> String {
    let mut f = Frame {
        out: String::new(),
        style: style.clone(),
    };

    // ── header ──
    let title = if style.title.is_empty() {
        "sss live ops".to_string()
    } else {
        format!("sss live ops · {}", style.title)
    };
    f.top(&title);
    let faults = m.faults();
    let part = if faults.partitioned() {
        f.paint("31", "PARTITIONED")
    } else {
        f.paint("32", "connected")
    };
    let taint = faults.tainted_count();
    let taint_str = if taint > 0 {
        f.paint("33", &format!("{taint} tainted"))
    } else {
        "0 tainted".to_string()
    };
    f.row(&format!(
        " t={} · {} nodes · {} cycles · {} · {} · folded {}",
        fmt_us(m.now()),
        m.n(),
        faults.cycles(),
        part,
        taint_str,
        m.records(),
    ));

    // ── per-node panels ──
    f.mid("nodes");
    for i in 0..m.n() {
        let nm = m.node(i);
        let nf = faults.node(i);
        let health = match (nf.crashed, nf.byzantine, nf.taint.is_some()) {
            (true, _, _) => f.paint("31;1", "DOWN "),
            (false, true, _) => f.paint("35;1", "BYZ  "),
            (false, false, true) => f.paint("33;1", "TAINT"),
            (false, false, false) => f.paint("32", "up   "),
        };
        let reach = m.reachable(i);
        let quorum = if m.quorum_ok(i) {
            format!("{reach}/{} ✓", m.n())
        } else {
            f.paint("31", &format!("{reach}/{} ✗", m.n()))
        };
        let lat = nm.latency();
        f.row(&format!(
            " p{i:<2} {health} q {quorum:<9} ops {}/{} ({} infl) stab {} drop {}",
            nm.invoked,
            nm.completed,
            nm.inflight(),
            nf.stabilizations,
            nm.drops_total(),
        ));
        f.row(&format!(
            "      p50 {:>7} p99 {:>7}  {}",
            fmt_us(lat.p50),
            fmt_us(lat.p99),
            sparkline(&nm.sparkline()),
        ));
    }

    // ── shard panel (only when a service pushes gauges) ──
    if !m.shards().is_empty() {
        f.mid("shards");
        for s in m.shards() {
            f.row(&shard_row(&f, s));
        }
    }

    // ── event feed ──
    f.mid("events");
    let feed: Vec<_> = m.feed().collect();
    if feed.is_empty() {
        f.row(" (no faults yet)");
    }
    // Newest last, like a log tail; the feed itself is bounded.
    for e in feed.iter().rev().take(10).rev() {
        f.row(&format!(" t={:>9} {}", fmt_us(e.at), e.text));
    }
    f.bottom();
    f.out
}

fn shard_row(f: &Frame, s: &ShardGauge) -> String {
    let state = if s.down {
        f.paint("31", "down")
    } else {
        f.paint("32", "ok  ")
    };
    format!(
        " s{:<3} {state} depth {:>4} collapse {:>5.1}x acc {} done {} rej {} p99 {}",
        s.shard,
        s.queue_depth,
        s.collapse_factor(),
        s.accepted,
        s.completed,
        s.overloaded + s.unavailable,
        fmt_us(s.latency.p99),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FaultKind, TraceEvent, TraceRecord};
    use sss_types::NodeId;

    fn demo_metrics() -> ClusterMetrics {
        let mut m = ClusterMetrics::new(3);
        m.fold(&TraceRecord {
            seq: 0,
            at: 500,
            event: TraceEvent::Fault {
                kind: FaultKind::Crash,
                node: Some(NodeId(2)),
                peer: None,
            },
        });
        m.fold(&TraceRecord {
            seq: 1,
            at: 900,
            event: TraceEvent::Stabilized { node: NodeId(1) },
        });
        m
    }

    #[test]
    fn headless_frame_is_plain_and_shows_the_story() {
        let m = demo_metrics();
        let frame = render(&m, &DashStyle::headless());
        assert!(!frame.contains('\x1b'), "headless means no ANSI");
        assert!(frame.contains("DOWN"), "crashed node is visible");
        assert!(frame.contains("crash p2"), "feed carries the fault");
        assert!(frame.contains("stabilized p1"));
        assert!(frame.contains("3 nodes"));
        // Panel borders are intact and aligned.
        for line in frame.lines() {
            assert!(
                line.starts_with('┌')
                    || line.starts_with('│')
                    || line.starts_with('├')
                    || line.starts_with('└'),
                "stray line {line:?}"
            );
        }
        let widths: Vec<usize> = frame.lines().map(|l| l.chars().count()).collect();
        assert!(
            widths.iter().all(|&w| w == widths[0]),
            "ragged frame: {widths:?}"
        );
    }

    #[test]
    fn live_color_frame_clears_line_tails() {
        let m = demo_metrics();
        let style = DashStyle {
            live: true,
            title: "threads".into(),
        };
        let frame = render(&m, &style);
        assert!(frame.contains("\x1b[K"), "live mode erases stale tails");
        assert!(frame.contains("threads"));
        assert!(frame.contains("\x1b[31;1mDOWN"));
    }

    #[test]
    fn sparkline_scales_to_its_max() {
        assert_eq!(sparkline(&[0, 0, 0]), "   ");
        let s = sparkline(&[1, 50, 100]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 3);
        assert_eq!(chars[2], '█', "max sample is a full block");
        assert_ne!(chars[0], ' ', "nonzero sample gets at least ▁");
        assert!(chars[0] < chars[1] && chars[1] < chars[2]);
    }

    #[test]
    fn fmt_us_picks_sane_units() {
        assert_eq!(fmt_us(0), "0µs");
        assert_eq!(fmt_us(999), "999µs");
        assert_eq!(fmt_us(1_500), "1.5ms");
        assert_eq!(fmt_us(2_500_000), "2.50s");
    }

    #[test]
    fn shard_panel_renders_when_present() {
        let mut m = demo_metrics();
        m.set_shards(vec![ShardGauge {
            shard: 0,
            queue_depth: 12,
            accepted: 100,
            completed: 88,
            absorbed: 88,
            protocol_ops: 22,
            ..ShardGauge::default()
        }]);
        let frame = render(&m, &DashStyle::headless());
        assert!(frame.contains("shards"));
        assert!(frame.contains("depth   12"));
        assert!(frame.contains("collapse   4.0x"));
    }
}
