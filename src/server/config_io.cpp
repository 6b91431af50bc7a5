#include "server/config_io.hpp"

#include <sstream>
#include <stdexcept>

namespace spider::server {

ServerConfig server_config_from(const util::Config& config) {
    ServerConfig sc;
    const std::size_t port = config.get_count("server.port", sc.port);
    if (port > 65535) {
        throw std::invalid_argument{"server config: port must be <= 65535"};
    }
    sc.port = static_cast<std::uint16_t>(port);
    sc.max_pipeline = config.get_count("server.max_pipeline", sc.max_pipeline);
    if (sc.max_pipeline == 0) {
        throw std::invalid_argument{"server config: max_pipeline must be > 0"};
    }
    sc.cache_items = config.get_count("server.cache_items", sc.cache_items);
    sc.cache_shards = config.get_count("server.cache_shards", sc.cache_shards);
    sc.lockfree_reads = config.get_bool("server.lockfree_reads", true);

    const std::size_t n_tenants = config.get_count("server.tenants", 1);
    if (n_tenants == 0 || n_tenants > 256) {
        throw std::invalid_argument{
            "server config: tenants must be in [1, 256]"};
    }
    std::vector<double> pct(n_tenants, 100.0 / static_cast<double>(n_tenants));
    if (config.contains("server.capacity_pct")) {
        pct = config.get_doubles("server.capacity_pct");
    }
    std::vector<double> ratio(n_tenants, 0.9);
    if (config.contains("server.imp_ratio")) {
        ratio = config.get_doubles("server.imp_ratio");
    }
    // Per-tenant eviction policies (DESIGN.md §13), one name per tenant.
    std::vector<std::string> imp_policy(n_tenants, "semantic");
    if (config.contains("server.imp_policy")) {
        imp_policy = config.get_list("server.imp_policy");
    }
    std::vector<std::string> hom_policy(n_tenants, "fifo");
    if (config.contains("server.hom_policy")) {
        hom_policy = config.get_list("server.hom_policy");
    }
    if (pct.size() != n_tenants || ratio.size() != n_tenants ||
        imp_policy.size() != n_tenants || hom_policy.size() != n_tenants) {
        throw std::invalid_argument{
            "server config: capacity_pct/imp_ratio/imp_policy/hom_policy "
            "list length != tenants"};
    }
    sc.tenants.clear();
    for (std::size_t t = 0; t < n_tenants; ++t) {
        cache::SectionPolicies policies;
        policies.importance = cache::policy_from_string(imp_policy[t]);
        policies.homophily = cache::policy_from_string(hom_policy[t]);
        cache::validate(policies);  // section eligibility, at parse time
        sc.tenants.push_back(TenantSpec{.capacity_pct = pct[t],
                                        .imp_ratio = ratio[t],
                                        .policies = policies});
    }
    // Fail at parse time, not at server construction: the same checks
    // TenantCacheManager enforces, minus the slice-size one that needs
    // cache_items context it also has here.
    double pct_sum = 0.0;
    for (const TenantSpec& t : sc.tenants) pct_sum += t.capacity_pct;
    if (pct_sum > 100.0 + 1e-9) {
        throw std::invalid_argument{
            "server config: capacity_pct sums to > 100"};
    }
    return sc;
}

std::string serialize_server_config(const ServerConfig& config) {
    std::ostringstream out;
    out << "[server]\n";
    out << "port = " << config.port << "\n";
    out << "max_pipeline = " << config.max_pipeline << "\n";
    out << "cache_items = " << config.cache_items << "\n";
    out << "cache_shards = " << config.cache_shards << "\n";
    out << "lockfree_reads = " << (config.lockfree_reads ? "true" : "false")
        << "\n";
    out << "tenants = " << config.tenants.size() << "\n";
    out << "capacity_pct = ";
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
        out << (t == 0 ? "" : ",") << config.tenants[t].capacity_pct;
    }
    out << "\nimp_ratio = ";
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
        out << (t == 0 ? "" : ",") << config.tenants[t].imp_ratio;
    }
    out << "\nimp_policy = ";
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
        out << (t == 0 ? "" : ",")
            << cache::to_string(config.tenants[t].policies.importance);
    }
    out << "\nhom_policy = ";
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
        out << (t == 0 ? "" : ",")
            << cache::to_string(config.tenants[t].policies.homophily);
    }
    out << "\n";
    return out.str();
}

}  // namespace spider::server
