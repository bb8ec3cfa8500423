package workload

// DashboardQueries returns the repeated-query serving workload: the
// panels of an operations dashboard over the web log, each refreshed
// many times per reporting period. The panels deliberately share
// strata — they aggregate the same weblogs scan under different
// group-bys and filters — which is the shape the sample cache exploits:
// one materialized sampler output per distinct fragment serves every
// refresh of its panel. examples/dashboard drives this set
// interactively; the repository benchmark's dashboard_repeat and
// ingest_refresh workloads refresh it in a closed loop.
func DashboardQueries() []Query {
	return []Query{
		{ID: "d01", Desc: "traffic by country", SQL: `
			SELECT log_country, COUNT(*) AS hits, SUM(log_bytes) AS bytes
			FROM weblogs
			GROUP BY log_country`},
		{ID: "d02", Desc: "error rate by status", SQL: `
			SELECT log_status, COUNT(*) AS hits, AVG(log_latency_ms) AS avg_latency
			FROM weblogs
			GROUP BY log_status`},
		{ID: "d03", Desc: "latency SLO buckets", SQL: `
			SELECT log_country,
			       COUNTIF(log_latency_ms < 50) AS fast,
			       COUNTIF(log_latency_ms >= 50 AND log_latency_ms < 200) AS ok,
			       COUNTIF(log_latency_ms >= 200) AS slow
			FROM weblogs
			GROUP BY log_country`},
		{ID: "d04", Desc: "top pages", HasLimit: true, SQL: `
			SELECT log_url, COUNT(*) AS hits
			FROM weblogs
			GROUP BY log_url
			ORDER BY hits DESC
			LIMIT 10`},
		{ID: "d05", Desc: "error bandwidth by url (filtered fragment)", SQL: `
			SELECT log_url, SUM(log_bytes) AS bytes, COUNT(*) AS hits
			FROM weblogs
			WHERE log_status >= 400
			GROUP BY log_url`},
		{ID: "d06", Desc: "slow-request mix by status (filtered fragment)", SQL: `
			SELECT log_status, COUNT(*) AS hits, SUM(log_bytes) AS bytes
			FROM weblogs
			WHERE log_latency_ms >= 100
			GROUP BY log_status`},
	}
}
