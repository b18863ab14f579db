/**
 * @file
 * slinfer_doccheck: markdown link and anchor checker for the repo's
 * documentation, run as the CI docs job.
 *
 *   slinfer_doccheck README.md DESIGN.md docs/ARCHITECTURE.md ...
 *
 * For every inline markdown link or image `[text](target)` outside a
 * fenced code block it verifies that
 *  - an intra-repo path target resolves to an existing file
 *    (relative to the referencing file), and
 *  - a `#fragment` (own-file or `path#fragment`) matches a heading
 *    anchor in the target file, using GitHub's slug rules (lowercase,
 *    punctuation stripped, spaces to hyphens, `-1`/`-2`... suffixes
 *    for duplicates).
 *
 * It also rejects source line-number anchors anywhere in a checked
 * file (`src|tools|tests|bench/<path>.{cc,hh}:<digits>`): line numbers
 * drift silently as code moves, so documents cite the file plus the
 * symbol instead.
 *
 * External targets (http/https/mailto) are not fetched — CI must not
 * depend on the network. Exit code: 0 when every link resolves and no
 * line-number anchor is found, 1 otherwise (each finding is printed
 * with file:line).
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace
{

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** GitHub heading slug: lowercase; keep alnum, hyphens, underscores;
 *  spaces become hyphens; everything else is dropped. */
std::string
slugify(const std::string &heading)
{
    std::string slug;
    for (char c : heading) {
        unsigned char u = static_cast<unsigned char>(c);
        if (std::isalnum(u)) {
            slug += static_cast<char>(std::tolower(u));
        } else if (c == ' ' || c == '-') {
            slug += '-';
        } else if (c == '_') {
            slug += '_';
        }
        // other punctuation: dropped
    }
    return slug;
}

/** Strip markdown decorations that GitHub ignores when slugging:
 *  inline code backticks, emphasis, and trailing anchors/links. */
std::string
headingText(const std::string &line)
{
    std::size_t start = line.find_first_not_of('#');
    std::string text =
        start == std::string::npos ? "" : line.substr(start);
    // Trim.
    while (!text.empty() && text.front() == ' ')
        text.erase(text.begin());
    while (!text.empty() &&
           (text.back() == ' ' || text.back() == '#'))
        text.pop_back();
    std::string out;
    for (std::size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        if (c == '`' || c == '*')
            continue;
        if (c == '[') { // [label](target) -> label
            std::size_t close = text.find(']', i);
            if (close != std::string::npos) {
                out += text.substr(i + 1, close - i - 1);
                std::size_t paren = close + 1;
                if (paren < text.size() && text[paren] == '(') {
                    std::size_t end = text.find(')', paren);
                    i = end == std::string::npos ? text.size() : end;
                } else {
                    i = close;
                }
                continue;
            }
        }
        out += c;
    }
    return out;
}

/** All heading anchors of a markdown document, with GitHub's
 *  duplicate suffix rule applied. */
std::set<std::string>
collectAnchors(const std::string &content)
{
    std::set<std::string> anchors;
    std::map<std::string, int> seen;
    std::istringstream in(content);
    std::string line;
    bool in_fence = false;
    while (std::getline(in, line)) {
        if (line.rfind("```", 0) == 0) {
            in_fence = !in_fence;
            continue;
        }
        if (in_fence || line.empty() || line[0] != '#')
            continue;
        std::size_t level = line.find_first_not_of('#');
        if (level == std::string::npos || level > 6 ||
            line[level] != ' ')
            continue;
        std::string slug = slugify(headingText(line));
        int &n = seen[slug];
        anchors.insert(n == 0 ? slug
                              : slug + "-" + std::to_string(n));
        ++n;
    }
    return anchors;
}

/** Directory part of a path ("" when none). */
std::string
dirOf(const std::string &path)
{
    std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash + 1);
}

/** Resolve "." and ".." components. */
std::string
normalize(const std::string &path)
{
    std::vector<std::string> parts;
    std::istringstream in(path);
    std::string part;
    while (std::getline(in, part, '/')) {
        if (part.empty() || part == ".")
            continue;
        if (part == ".." && !parts.empty() && parts.back() != "..")
            parts.pop_back();
        else
            parts.push_back(part);
    }
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i)
        out += (i ? "/" : "") + parts[i];
    return out;
}

struct Link
{
    std::string target;
    int line;
};

/** Inline links/images outside fenced code blocks and inline code. */
std::vector<Link>
collectLinks(const std::string &content)
{
    std::vector<Link> links;
    std::istringstream in(content);
    std::string line;
    int lineno = 0;
    bool in_fence = false;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.rfind("```", 0) == 0 ||
            line.rfind("    ```", 0) == 0) {
            in_fence = !in_fence;
            continue;
        }
        if (in_fence)
            continue;
        bool in_code = false;
        for (std::size_t i = 0; i + 1 < line.size(); ++i) {
            if (line[i] == '`') {
                in_code = !in_code;
                continue;
            }
            if (in_code || line[i] != ']' || line[i + 1] != '(')
                continue;
            std::size_t end = line.find(')', i + 2);
            if (end == std::string::npos)
                continue;
            std::string target = line.substr(i + 2, end - i - 2);
            // Strip an optional title: (path "title")
            std::size_t space = target.find(' ');
            if (space != std::string::npos)
                target = target.substr(0, space);
            if (!target.empty())
                links.push_back({target, lineno});
        }
    }
    return links;
}

/** Print every source line-number anchor in `content`; returns the
 *  count. */
int
reportLineAnchors(const std::string &path, const std::string &content)
{
    static const std::regex anchor(
        R"((^|[^A-Za-z0-9_./-]))"
        R"(((src|tools|tests|bench)/[A-Za-z0-9_./-]*\.(cc|hh):[0-9]+))");
    std::istringstream in(content);
    std::string line;
    int lineno = 0;
    int found = 0;
    while (std::getline(in, line)) {
        ++lineno;
        for (std::sregex_iterator it(line.begin(), line.end(), anchor), end;
             it != end; ++it) {
            std::fprintf(stderr,
                         "%s:%d: line-number anchor: %s (cite the file "
                         "and the symbol instead)\n",
                         path.c_str(), lineno, (*it)[2].str().c_str());
            ++found;
        }
    }
    return found;
}

bool
isExternal(const std::string &target)
{
    return target.rfind("http://", 0) == 0 ||
           target.rfind("https://", 0) == 0 ||
           target.rfind("mailto:", 0) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: slinfer_doccheck <file.md> [...]\n");
        return 2;
    }

    // Load every document once; anchor sets are reused across links.
    std::map<std::string, std::string> docs;
    for (int i = 1; i < argc; ++i) {
        std::string content;
        if (!readFile(argv[i], content)) {
            std::fprintf(stderr, "doccheck: cannot read %s\n",
                         argv[i]);
            return 2;
        }
        docs[normalize(argv[i])] = content;
    }

    std::map<std::string, std::set<std::string>> anchorCache;
    int broken = 0;
    int lineAnchors = 0;
    std::size_t checked = 0;

    for (const auto &[path, content] : docs) {
        lineAnchors += reportLineAnchors(path, content);
        for (const Link &link : collectLinks(content)) {
            if (isExternal(link.target))
                continue;
            ++checked;
            std::string target = link.target;
            std::string fragment;
            std::size_t hash = target.find('#');
            if (hash != std::string::npos) {
                fragment = target.substr(hash + 1);
                target = target.substr(0, hash);
            }
            std::string resolved =
                target.empty() ? path
                               : normalize(dirOf(path) + target);
            // The file must exist (any file in the repo counts, not
            // just the .md set passed on the command line).
            std::string probe;
            bool exists = docs.count(resolved) > 0 ||
                          readFile(resolved, probe);
            if (!exists) {
                std::fprintf(stderr,
                             "%s:%d: broken link: %s (no such "
                             "file %s)\n",
                             path.c_str(), link.line,
                             link.target.c_str(), resolved.c_str());
                ++broken;
                continue;
            }
            if (fragment.empty())
                continue;
            // Anchor checks only apply to markdown targets.
            if (resolved.size() < 3 ||
                resolved.substr(resolved.size() - 3) != ".md")
                continue;
            if (!anchorCache.count(resolved)) {
                // `probe` already holds the content when the target
                // was not on the command line (the existence check
                // read it); otherwise use the loaded document.
                anchorCache[resolved] = collectAnchors(
                    docs.count(resolved) ? docs[resolved] : probe);
            }
            if (!anchorCache[resolved].count(fragment)) {
                std::fprintf(stderr,
                             "%s:%d: broken anchor: %s (no heading "
                             "'#%s' in %s)\n",
                             path.c_str(), link.line,
                             link.target.c_str(), fragment.c_str(),
                             resolved.c_str());
                ++broken;
            }
        }
    }

    std::printf("doccheck: %zu intra-repo links checked across %zu "
                "files, %d broken, %d line-number anchors\n",
                checked, docs.size(), broken, lineAnchors);
    return broken == 0 && lineAnchors == 0 ? 0 : 1;
}
