//! Process CPU time from `/proc/self/stat`.

/// Kernel clock ticks per second. `USER_HZ` is 100 on every Linux
/// architecture Rust targets; reading it properly needs `sysconf`.
const TICKS_PER_SECOND: f64 = 100.0;

/// `(utime, stime)` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// User + system CPU seconds this process has used so far, exited
/// threads included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let (utime, stime) = parse_stat_ticks(&stat).expect("parse /proc/self/stat");
    (utime + stime) as f64 / TICKS_PER_SECOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_utime_and_stime() {
        let stat = "4242 (ladder) R 1 4242 4242 0 -1 4194304 951 0 0 0 \
                    312 45 0 0 20 0 3 0 1234567 10000000 900 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some((312, 45)));
    }

    #[test]
    fn command_name_with_spaces_and_parens() {
        let stat = "7 (a (b) c d) S 1 7 7 0 -1 0 0 0 0 0 11 22 0 0 20 0 1 0 5 6 7 8";
        assert_eq!(parse_stat_ticks(stat), Some((11, 22)));
    }

    #[test]
    fn truncated_or_garbled_input_is_none() {
        assert_eq!(parse_stat_ticks(""), None);
        assert_eq!(parse_stat_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(
            parse_stat_ticks("1 (x) R 1 1 1 0 -1 0 0 0 0 0 abc 3 0 0"),
            None
        );
    }

    #[test]
    fn live_reading_is_monotonic() {
        let a = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() >= a);
    }
}
