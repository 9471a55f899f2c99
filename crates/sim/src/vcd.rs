//! Minimal VCD (Value Change Dump) writer.
//!
//! Renders a recorded simulation trace (see
//! [`Simulator::enable_tracing`](crate::Simulator::enable_tracing)) to the
//! standard IEEE-1364 VCD text format, viewable in GTKWave & co. Useful when
//! debugging why a security property fired.

use std::fmt::Write as _;

use soccar_rtl::design::{Design, NetId};
use soccar_rtl::value::LogicVec;

use crate::sim::TraceEvent;

/// Writes a VCD document for `events` over the nets of `design`.
///
/// Only nets that appear in `events` are declared, in net order.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soccar_sim::{vcd::write_vcd, InitPolicy, Simulator};
///
/// let (design, _) = soccar_rtl::compile("t.v",
///     "module t(input a, output y); assign y = ~a; endmodule", "t")?;
/// let mut sim = Simulator::concrete(&design, InitPolicy::X);
/// sim.enable_tracing();
/// let a = design.find_net("t.a").expect("a");
/// sim.write_input(a, soccar_rtl::LogicVec::from_u64(1, 1))?;
/// sim.settle()?;
/// let vcd = write_vcd(&design, sim.trace());
/// assert!(vcd.contains("$enddefinitions"));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn write_vcd(design: &Design, events: &[TraceEvent]) -> String {
    let mut nets: Vec<NetId> = events.iter().map(|e| e.net).collect();
    nets.sort_unstable();
    nets.dedup();

    let mut out = String::new();
    out.push_str("$date today $end\n");
    out.push_str("$version soccar-sim $end\n");
    out.push_str("$timescale 1ns $end\n");
    out.push_str("$scope module design $end\n");
    for (i, net) in nets.iter().enumerate() {
        let info = design.net(*net);
        let code = id_code(i);
        let _ = writeln!(
            out,
            "$var wire {} {} {} $end",
            info.width,
            code,
            info.name.replace('.', "_")
        );
    }
    out.push_str("$upscope $end\n$enddefinitions $end\n");

    let mut last_time = u64::MAX;
    for ev in events {
        let Some(pos) = nets.binary_search(&ev.net).ok() else {
            continue;
        };
        if ev.time != last_time {
            let _ = writeln!(out, "#{}", ev.time);
            last_time = ev.time;
        }
        let _ = writeln!(out, "{}", format_change(&ev.value, &id_code(pos)));
    }
    out
}

/// Generates the VCD short identifier for index `i` (printable ASCII 33..).
fn id_code(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.push(char::from(33 + (i % 94) as u8));
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

fn format_change(value: &LogicVec, code: &str) -> String {
    if value.width() == 1 {
        format!("{}{}", value.bit(0), code)
    } else {
        format!("b{value:b} {code}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{InitPolicy, Simulator};

    #[test]
    fn vcd_contains_declared_vars_and_changes() {
        let (design, _) = soccar_rtl::compile(
            "t.v",
            "module t(input [3:0] a, output [3:0] y); assign y = ~a; endmodule",
            "t",
        )
        .expect("compile");
        let mut sim = Simulator::concrete(&design, InitPolicy::X);
        sim.enable_tracing();
        let a = design.find_net("t.a").expect("a");
        sim.write_input(a, LogicVec::from_u64(4, 0b1010))
            .expect("a");
        sim.settle().expect("settle");
        let vcd = write_vcd(&design, sim.trace());
        assert!(vcd.contains("$var wire 4"));
        assert!(vcd.contains("t_y"));
        assert!(vcd.contains("b0101"));
    }

    #[test]
    fn id_codes_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let c = id_code(i);
            assert!(c.bytes().all(|b| (33..127).contains(&b)));
            assert!(seen.insert(c));
        }
    }

    #[test]
    fn scalar_changes_have_no_space() {
        let v = LogicVec::from_u64(1, 1);
        assert_eq!(format_change(&v, "!"), "1!");
        let w = LogicVec::from_u64(2, 1);
        assert_eq!(format_change(&w, "!"), "b01 !");
    }
}
